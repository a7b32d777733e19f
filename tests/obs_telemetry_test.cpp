// Telemetry-plane unit tests: registry registration semantics, the
// recorder's ring wraparound + keep-every-2nd downsampling, span tracer
// open/close pairing (including stale closes and ring overwrites), plane
// seal/sampling mechanics, and structural well-formedness of the Chrome
// trace-event JSON and time-series CSV exports.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace specpf {
namespace {

// --- registry ---------------------------------------------------------------

TEST(TelemetryRegistry, RegisterAddAndRead) {
  TelemetryRegistry reg;
  const auto c0 = reg.register_counter("req.count");
  const auto c1 = reg.register_counter("req.hit");
  const auto g0 = reg.register_gauge("link.queue_depth");
  EXPECT_EQ(reg.counter_count(), 2u);
  EXPECT_EQ(reg.gauge_count(), 1u);

  reg.add(c0);
  reg.add(c0, 41);
  reg.add(c1);
  reg.set_gauge(g0, 3.5);
  EXPECT_EQ(reg.counter(c0), 42u);
  EXPECT_EQ(reg.counter(c1), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge(g0), 3.5);
  EXPECT_EQ(reg.counter_name(c0), "req.count");
  EXPECT_EQ(reg.gauge_name(g0), "link.queue_depth");
}

// --- recorder ---------------------------------------------------------------

TEST(TimeSeriesRecorder, RecordsUntilCapacityThenDownsamples) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/1, /*capacity=*/8, /*interval=*/1.0);
  std::vector<double> row(1);
  for (int i = 0; i < 8; ++i) {
    row[0] = static_cast<double>(i);
    rec.record(static_cast<double>(i), row);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.downsamples(), 0u);
  EXPECT_DOUBLE_EQ(rec.interval(), 1.0);

  // The 9th row forces a keep-every-2nd pass: rows {0,2,4,6} survive, the
  // new row lands after them, and the cadence doubles.
  row[0] = 8.0;
  rec.record(8.0, row);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.downsamples(), 1u);
  EXPECT_DOUBLE_EQ(rec.interval(), 2.0);
  const double expect_times[] = {0.0, 2.0, 4.0, 6.0, 8.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(rec.time(i), expect_times[i]) << "row " << i;
    EXPECT_DOUBLE_EQ(rec.value(i, 0), expect_times[i]) << "row " << i;
  }
  EXPECT_EQ(rec.recorded(), 9u);

  // A long run keeps folding: the row count never exceeds capacity and the
  // timestamps stay monotone through every wraparound.
  for (int i = 9; i < 1000; ++i) {
    row[0] = static_cast<double>(i);
    rec.record(static_cast<double>(i), row);
  }
  EXPECT_LE(rec.size(), 8u);
  EXPECT_GT(rec.downsamples(), 1u);
  for (std::size_t i = 1; i < rec.size(); ++i) {
    EXPECT_LT(rec.time(i - 1), rec.time(i));
  }
  AuditReport report;
  rec.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- span tracer ------------------------------------------------------------

TEST(SpanTracer, OpenClosePairingAndKindMetadata) {
  SpanTracer spans;
  spans.configure(16);
  ASSERT_TRUE(spans.enabled());

  const auto ref = spans.open(SpanTracer::SpanKind::kDemandFetch, 1.0, 7, 42);
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(spans.opens(), 1u);
  EXPECT_EQ(spans.closes(), 0u);
  spans.close(ref, 2.5);
  EXPECT_EQ(spans.closes(), 1u);

  spans.complete(SpanTracer::SpanKind::kInflightWait, 3.0, 3.25, 8, 43);
  EXPECT_EQ(spans.opens(), 2u);
  EXPECT_EQ(spans.closes(), 2u);

  int seen = 0;
  spans.for_each_closed([&](const SpanTracer::SpanRecord& rec) {
    ++seen;
    EXPECT_GE(rec.t_end, rec.t_start);
  });
  EXPECT_EQ(seen, 2);

  EXPECT_STREQ(SpanTracer::kind_name(SpanTracer::SpanKind::kPrefetchFetch),
               "prefetch_fetch");
  EXPECT_EQ(SpanTracer::kind_track(SpanTracer::SpanKind::kPrefetchFetch), 1u);
  EXPECT_EQ(SpanTracer::kind_track(SpanTracer::SpanKind::kDemandWait), 2u);
}

TEST(SpanTracer, StaleCloseAfterRingWraparoundIsCountedNoOp) {
  SpanTracer spans;
  spans.configure(4);
  const auto early = spans.open(SpanTracer::SpanKind::kDemandFetch, 0.0, 1, 1);
  // Wrap the ring: the early span's slot is recycled while still open, so
  // it is counted overwritten and its ref goes stale.
  for (int i = 0; i < 4; ++i) {
    spans.complete(SpanTracer::SpanKind::kPrefetchFetch, 1.0 + i, 1.5 + i, 2,
                   10 + i);
  }
  EXPECT_EQ(spans.overwritten(), 1u);

  spans.close(early, 9.0);  // must not scribble over the newer span
  EXPECT_EQ(spans.stale_closes(), 1u);
  spans.for_each_closed([&](const SpanTracer::SpanRecord& rec) {
    EXPECT_EQ(static_cast<SpanTracer::SpanKind>(rec.kind),
              SpanTracer::SpanKind::kPrefetchFetch);
  });
  AuditReport report;
  spans.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SpanTracer, ZeroCapacityDisablesTracing) {
  SpanTracer spans;
  spans.configure(0);
  EXPECT_FALSE(spans.enabled());
  const auto ref = spans.open(SpanTracer::SpanKind::kDemandFetch, 0.0, 1, 1);
  EXPECT_FALSE(ref.valid());
  spans.close(ref, 1.0);
  EXPECT_EQ(spans.opens(), 0u);
  EXPECT_EQ(spans.stale_closes(), 0u);
}

// --- plane ------------------------------------------------------------------

TEST(TelemetryPlane, SealThenSampleOnCadence) {
  TelemetryConfig cfg;
  cfg.sample_interval = 1.0;
  TelemetryPlane plane(cfg);
  const auto g = plane.registry().register_gauge("g");
  int refreshes = 0;
  plane.set_gauge_source([&refreshes, g](TelemetryRegistry& reg) {
    ++refreshes;
    reg.set_gauge(g, static_cast<double>(refreshes));
  });
  plane.seal();
  ASSERT_TRUE(plane.sealed());

  plane.maybe_sample(0.0);  // due immediately (next_sample_ starts at 0)
  EXPECT_EQ(plane.series().size(), 1u);
  plane.maybe_sample(0.5);  // not due
  EXPECT_EQ(plane.series().size(), 1u);
  plane.maybe_sample(1.0);  // due
  plane.sample_now(1.25);   // forced (epoch barrier)
  EXPECT_EQ(plane.series().size(), 3u);
  EXPECT_EQ(refreshes, 3);
  EXPECT_DOUBLE_EQ(plane.series().value(2, g), 3.0);

  AuditReport report;
  plane.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- export -----------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal JSON well-formedness scan: brackets/braces balance outside
/// strings and no dangling comma precedes a closer. Not a full parser, but
/// it catches every comma/nesting bug an emitter can make.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  char last_significant = '\0';
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        last_significant = '"';
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      EXPECT_NE(last_significant, ',') << "dangling comma before closer";
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced closer";
    }
    if (!std::isspace(static_cast<unsigned char>(c))) last_significant = c;
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced brackets";
}

/// A small governed replay recording into `plane` — the export fixture.
void run_replay_with_telemetry(TelemetryPlane& plane) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 200;
  trace_cfg.num_requests = 2000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 60;
  trace_cfg.seed = 17;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;
  cfg.governor = "token-50";
  cfg.telemetry = &plane;
  ThresholdPolicy policy(core::InteractionModel::kModelA);
  const ProxySimResult result = run_trace_replay(trace, cfg, policy);
  EXPECT_GT(result.requests, 0u);
}

TEST(TraceExport, ChromeTraceIsStructurallyWellFormed) {
  TelemetryPlane plane;
  run_replay_with_telemetry(plane);
  ASSERT_GT(plane.series().size(), 0u);
  ASSERT_GT(plane.spans().closes(), 0u);

  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(write_chrome_trace(path, plane));
  const std::string text = slurp(path);
  std::remove(path.c_str());

  ASSERT_FALSE(text.empty());
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // All three event classes present: metadata, complete spans, counters.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  // Track naming and instruments exported by name.
  EXPECT_NE(text.find("\"link\""), std::string::npos);
  EXPECT_NE(text.find("\"waits\""), std::string::npos);
  EXPECT_NE(text.find("link.queue_depth"), std::string::npos);
}

TEST(TraceExport, TimeseriesCsvHasHeaderAndRows) {
  TelemetryPlane plane;
  run_replay_with_telemetry(plane);

  const std::string path = "obs_test_series.csv";
  ASSERT_TRUE(write_timeseries_csv(path, plane));
  const std::string text = slurp(path);
  std::remove(path.c_str());

  std::stringstream lines(text);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("shard,time,", 0), 0u) << header;
  EXPECT_NE(header.find("link.queue_depth"), std::string::npos);
  // Units metadata row directly under the header, one cell per column.
  std::string units;
  ASSERT_TRUE(std::getline(lines, units));
  EXPECT_EQ(units.rfind("#units,s,", 0), 0u) << units;
  EXPECT_EQ(std::count(units.begin(), units.end(), ','),
            std::count(header.begin(), header.end(), ','));
  std::size_t rows = 0;
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, plane.series().size());
}

TEST(TraceExport, FleetExportCoversEveryShard) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TelemetryFleet fleet(TelemetryConfig{}, 3);
  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  cfg.telemetry = &fleet;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
  const ShardedReplayResult r = run_sharded_replay(trace, cfg, factory);
  EXPECT_GT(r.merged.requests, 0u);

  const std::string path = "obs_test_fleet.json";
  ASSERT_TRUE(write_chrome_trace(path, fleet));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  expect_balanced_json(text);
  for (int s = 0; s < 3; ++s) {
    EXPECT_NE(text.find("\"shard " + std::to_string(s) + "\""),
              std::string::npos)
        << "shard " << s << " missing from trace";
  }
  // The driver's origin-uplink gauges ride along with the runtime's.
  EXPECT_NE(text.find("origin.queue_depth"), std::string::npos);

  const std::string csv_path = "obs_test_fleet.csv";
  ASSERT_TRUE(write_timeseries_csv(csv_path, fleet));
  const std::string csv = slurp(csv_path);
  std::remove(csv_path.c_str());
  std::stringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find("origin.queue_depth"), std::string::npos);
  std::string units;
  ASSERT_TRUE(std::getline(lines, units));
  EXPECT_EQ(units.rfind("#units,s,", 0), 0u) << units;
  std::size_t rows = 0;
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, fleet.shard(0).series().size() +
                      fleet.shard(1).series().size() +
                      fleet.shard(2).series().size());
}

}  // namespace
}  // namespace specpf
