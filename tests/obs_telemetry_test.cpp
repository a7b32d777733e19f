// Telemetry-plane unit tests: registry registration semantics, the
// recorder's ring wraparound + keep-every-2nd downsampling, the span ring
// (completion order, keeping the last N spans once it wraps), plane
// seal/sampling mechanics, structural well-formedness of the Chrome
// trace-event JSON and time-series CSV exports, and frozen digests of what
// a small replay exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
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

TEST(TelemetryRegistry, RegisterSetAndRead) {
  TelemetryRegistry reg;
  const auto g0 = reg.register_gauge("link.queue_depth", "jobs");
  const auto g1 = reg.register_gauge("link.util_ewma", "ratio");
  EXPECT_EQ(reg.gauge_count(), 2u);

  reg.set_gauge(g0, 3.5);
  reg.set_gauge(g1, 0.25);
  EXPECT_DOUBLE_EQ(reg.gauge(g0), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge(g1), 0.25);
  EXPECT_EQ(reg.gauge_name(g0), "link.queue_depth");
  EXPECT_EQ(reg.gauge_unit(g1), "ratio");
  EXPECT_EQ(reg.find_gauge("link.util_ewma"), g1);
  EXPECT_EQ(reg.find_gauge("req.count"), reg.gauge_count());
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

using SpanKind = SpanTracer::SpanKind;

/// (kind, start, user) of every retained span, oldest first.
std::vector<std::tuple<SpanKind, double, std::uint32_t>> retained(
    const SpanTracer& spans) {
  std::vector<std::tuple<SpanKind, double, std::uint32_t>> out;
  spans.for_each([&](const SpanTracer::SpanRecord& rec) {
    out.emplace_back(static_cast<SpanKind>(rec.kind), rec.t_start, rec.user);
  });
  return out;
}

TEST(SpanTracer, RecordsInCompletionOrderWithKindMetadata) {
  SpanTracer spans(16);
  spans.record(SpanKind::kDemandFetch, 1.0, 2.5, 7, 42);
  spans.record(SpanKind::kInflightWait, 3.0, 3.25, 8, 43);
  EXPECT_EQ(spans.recorded(), 2u);

  std::vector<SpanTracer::SpanRecord> seen;
  spans.for_each(
      [&](const SpanTracer::SpanRecord& rec) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(static_cast<SpanKind>(seen[0].kind), SpanKind::kDemandFetch);
  EXPECT_DOUBLE_EQ(seen[0].t_start, 1.0);
  EXPECT_DOUBLE_EQ(seen[0].t_end, 2.5);
  EXPECT_EQ(seen[0].user, 7u);
  EXPECT_EQ(seen[0].item, 42u);
  EXPECT_EQ(static_cast<SpanKind>(seen[1].kind), SpanKind::kInflightWait);

  EXPECT_STREQ(SpanTracer::kind_name(SpanKind::kPrefetchFetch),
               "prefetch_fetch");
  EXPECT_EQ(SpanTracer::kind_track(SpanKind::kPrefetchFetch), 1u);
  EXPECT_EQ(SpanTracer::kind_track(SpanKind::kDemandWait), 2u);
}

TEST(SpanTracer, WrappedRingKeepsExactlyTheLastNSpans) {
  constexpr std::size_t kCapacity = 5;
  SpanTracer spans(kCapacity);
  std::vector<std::tuple<SpanKind, double, std::uint32_t>> all;
  for (std::uint32_t i = 0; i < 23; ++i) {
    const auto kind = static_cast<SpanKind>(i % 4);
    spans.record(kind, static_cast<double>(i), i + 0.5, i, 100 + i);
    all.emplace_back(kind, static_cast<double>(i), i);
    // After every record the ring holds the last min(i + 1, N) spans,
    // oldest first: through the first fill, at exactly N, and across
    // every later wrap.
    const std::size_t kept = std::min<std::size_t>(all.size(), kCapacity);
    const std::vector<std::tuple<SpanKind, double, std::uint32_t>> expect(
        all.end() - static_cast<std::ptrdiff_t>(kept), all.end());
    ASSERT_EQ(retained(spans), expect) << "after " << i + 1 << " records";
  }
  EXPECT_EQ(spans.recorded(), 23u);
  AuditReport report;
  spans.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
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
  ASSERT_GT(plane.spans().recorded(), 0u);

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

// --- frozen export digests --------------------------------------------------
//
// FNV-1a digests of what the export fixture hands its exporters: the
// time-series CSV byte for byte, and the multiset of exported spans
// (kind, start, end, user, item), sorted so the digest does not depend on
// the order the tracer lists them in. The fixture records far fewer spans
// than the ring holds, so every span it records is exported.

class Fnv1a {
 public:
  void add_byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      add_byte(static_cast<unsigned char>(v >> (8 * byte)));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

constexpr std::uint64_t kFixtureCsvDigest = 0x78b643b524b9b0dfULL;
constexpr std::uint64_t kFixtureSpanDigest = 0x7f99774cf06ffcd8ULL;

using SpanKey = std::tuple<std::uint16_t, std::uint64_t, std::uint64_t,
                           std::uint32_t, std::uint64_t>;

std::vector<SpanKey> exported_spans(const SpanTracer& spans) {
  std::vector<SpanKey> out;
  spans.for_each([&](const SpanTracer::SpanRecord& rec) {
    out.emplace_back(rec.kind, std::bit_cast<std::uint64_t>(rec.t_start),
                     std::bit_cast<std::uint64_t>(rec.t_end), rec.user,
                     rec.item);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TraceExport, FixtureExportsMatchFrozenDigests) {
  TelemetryPlane plane;
  run_replay_with_telemetry(plane);

  const std::string path = "obs_test_digest.csv";
  ASSERT_TRUE(write_timeseries_csv(path, plane));
  const std::string csv = slurp(path);
  std::remove(path.c_str());
  Fnv1a csv_hash;
  for (const char c : csv) csv_hash.add_byte(static_cast<unsigned char>(c));

  const std::vector<SpanKey> spans = exported_spans(plane.spans());
  ASSERT_EQ(spans.size(), plane.spans().recorded());
  ASSERT_LT(spans.size(), std::size_t{1} << 16);
  Fnv1a span_hash;
  for (const auto& [kind, t0, t1, user, item] : spans) {
    span_hash.add(kind);
    span_hash.add(t0);
    span_hash.add(t1);
    span_hash.add(user);
    span_hash.add(item);
  }
  EXPECT_EQ(csv_hash.value(), kFixtureCsvDigest)
      << std::hex << "csv digest 0x" << csv_hash.value();
  EXPECT_EQ(span_hash.value(), kFixtureSpanDigest)
      << std::hex << "span digest 0x" << span_hash.value();
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
