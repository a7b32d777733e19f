// Stack differential tests. The frozen digest table pins the results of
// every predictor x cache-kind cell for the generative proxy sim, trace
// replay, and a sharded replay (frozen while the retired pre-arena
// backends still matched the default ones leg for leg). The remaining legs
// pin the
// purity contracts: telemetry on == off, detector armed-but-disarmed ==
// absent, and streamed sources == in-RAM traces.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace specpf {
namespace {

void expect_identical(const ProxySimResult& a, const ProxySimResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.wasted_prefetch_evictions, b.wasted_prefetch_evictions);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_DOUBLE_EQ(a.access_time_std_error, b.access_time_std_error);
  EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_DOUBLE_EQ(a.server_utilization, b.server_utilization);
  EXPECT_DOUBLE_EQ(a.retrieval_time_per_request,
                   b.retrieval_time_per_request);
  EXPECT_DOUBLE_EQ(a.retrievals_per_request, b.retrievals_per_request);
  EXPECT_DOUBLE_EQ(a.hprime_estimate, b.hprime_estimate);
  EXPECT_DOUBLE_EQ(a.prefetch_useful_fraction,
                   b.prefetch_useful_fraction);
  EXPECT_DOUBLE_EQ(a.mean_inflight_wait, b.mean_inflight_wait);
  EXPECT_DOUBLE_EQ(a.mean_demand_sojourn, b.mean_demand_sojourn);
  EXPECT_DOUBLE_EQ(a.access_time_p50, b.access_time_p50);
  EXPECT_DOUBLE_EQ(a.access_time_p95, b.access_time_p95);
  EXPECT_DOUBLE_EQ(a.access_time_p99, b.access_time_p99);
}

// --- frozen result digests ---------------------------------------------------
//
// One u64 FNV-1a digest per cell of the stack matrix (proxy sim: 5
// predictors x 5 cache kinds; trace replay: 5 cache kinds x capacity {8, 24}
// plus the other 3 replayable predictor kinds; 3-shard replay: 5 cache kinds
// plus PPM). Each digest covers the bit pattern of every numeric
// ProxySimResult field, so any change to simulated behaviour, however
// small, changes the table. Regenerating is deliberate (one command line):
//
//   ./build/sim_stack_differential_test --gtest_also_run_disabled_tests
//       --gtest_filter='StackDigests.DISABLED_PrintDigests'
//       | grep '^{' > tests/stack_digests.inc

struct CellDigest {
  const char* cell;
  std::uint64_t digest;
};

constexpr CellDigest kFrozenDigests[] = {
#include "stack_digests.inc"
};

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t result_digest(const ProxySimResult& r) {
  Fnv1a h;
  h.add(r.requests);
  h.add(r.demand_jobs);
  h.add(r.prefetch_jobs);
  h.add(r.wasted_prefetch_evictions);
  h.add(r.inflight_hits);
  h.add(r.throttled_prefetches);
  h.add(r.mean_access_time);
  h.add(r.access_time_std_error);
  h.add(r.access_time_p50);
  h.add(r.access_time_p95);
  h.add(r.access_time_p99);
  h.add(r.hit_ratio);
  h.add(r.server_utilization);
  h.add(r.retrieval_time_per_request);
  h.add(r.retrievals_per_request);
  h.add(r.hprime_estimate);
  h.add(r.prefetch_useful_fraction);
  h.add(r.mean_inflight_wait);
  h.add(r.mean_demand_sojourn);
  h.add(r.peak_queue_depth);
  h.add(r.peak_slowdown);
  return h.value();
}

constexpr CacheKind kDigestCaches[] = {CacheKind::kLru, CacheKind::kLfu,
                                       CacheKind::kFifo, CacheKind::kClock,
                                       CacheKind::kRandom};

/// Runs every matrix cell with the default backends and returns
/// (cell name, digest) in table order.
std::vector<std::pair<std::string, std::uint64_t>> compute_matrix_digests() {
  std::vector<std::pair<std::string, std::uint64_t>> out;

  for (int p = 0; p < kNumPredictorKinds; ++p) {
    const auto predictor = static_cast<PredictorKind>(p);
    for (CacheKind cache : kDigestCaches) {
      ProxySimConfig cfg;
      cfg.num_users = 4;
      cfg.bandwidth = 30.0;
      cfg.graph.num_pages = 60;
      cfg.graph.out_degree = 3;
      cfg.graph.exit_probability = 0.2;
      cfg.cache_capacity = 12;
      cfg.duration = 120.0;
      cfg.warmup = 20.0;
      cfg.seed = 9;
      cfg.predictor_kind = predictor;
      cfg.cache_kind = cache;
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      out.emplace_back(std::string("proxy/") + predictor_kind_name(predictor) +
                           "/" + cache_kind_name(cache),
                       result_digest(run_proxy_sim(cfg, policy)));
    }
  }

  SyntheticTraceConfig replay_trace_cfg;
  replay_trace_cfg.num_users = 500;
  replay_trace_cfg.num_requests = 5000;
  replay_trace_cfg.request_rate = 50.0;
  replay_trace_cfg.graph.num_pages = 80;
  replay_trace_cfg.seed = 21;
  const Trace replay_trace = generate_synthetic_trace(replay_trace_cfg);
  for (CacheKind cache : kDigestCaches) {
    for (std::size_t capacity : {std::size_t{8}, std::size_t{24}}) {
      TraceReplayConfig cfg;
      cfg.bandwidth = 60.0;
      cfg.cache_capacity = capacity;
      cfg.cache_kind = cache;
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      out.emplace_back(std::string("replay/markov/") + cache_kind_name(cache) +
                           "/" + std::to_string(capacity),
                       result_digest(run_trace_replay(replay_trace, cfg,
                                                      policy)));
    }
  }
  for (auto predictor : {PredictorKind::kPpm, PredictorKind::kDependencyGraph,
                         PredictorKind::kFrequency}) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    cfg.predictor_kind = predictor;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    out.emplace_back(std::string("replay/") + predictor_kind_name(predictor) +
                         "/lru/8",
                     result_digest(run_trace_replay(replay_trace, cfg, policy)));
  }

  SyntheticTraceConfig shard_trace_cfg;
  shard_trace_cfg.num_users = 300;
  shard_trace_cfg.num_requests = 3000;
  shard_trace_cfg.request_rate = 50.0;
  shard_trace_cfg.graph.num_pages = 80;
  shard_trace_cfg.seed = 33;
  const Trace shard_trace = generate_synthetic_trace(shard_trace_cfg);
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
  auto sharded_cell = [&](PredictorKind predictor, CacheKind cache) {
    ShardedReplayConfig cfg;
    cfg.stack.bandwidth = 60.0;
    cfg.stack.cache_capacity = 8;
    cfg.stack.cache_kind = cache;
    cfg.stack.predictor_kind = predictor;
    cfg.num_shards = 3;
    cfg.num_threads = 1;
    out.emplace_back(std::string("shard3/") + predictor_kind_name(predictor) +
                         "/" + cache_kind_name(cache) + "/8",
                     result_digest(
                         run_sharded_replay(shard_trace, cfg, factory).merged));
  };
  for (CacheKind cache : kDigestCaches) {
    sharded_cell(PredictorKind::kMarkov, cache);
  }
  sharded_cell(PredictorKind::kPpm, CacheKind::kLru);
  return out;
}

TEST(StackDigests, MatchFrozenTable) {
  const auto digests = compute_matrix_digests();
  ASSERT_EQ(digests.size(), std::size(kFrozenDigests));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kFrozenDigests[i].cell) << "row " << i;
    EXPECT_EQ(digests[i].second, kFrozenDigests[i].digest)
        << digests[i].first << ": simulated results changed";
  }
}

TEST(StackDigests, DISABLED_PrintDigests) {
  for (const auto& [cell, digest] : compute_matrix_digests()) {
    std::printf("{\"%s\", 0x%016llxULL},\n", cell.c_str(),
                static_cast<unsigned long long>(digest));
  }
}

// --- telemetry on vs off: observation must be bit-identical -----------------

TEST(StackDifferential, ProxySimTelemetryOnMatchesOff) {
  ProxySimConfig cfg;
  cfg.num_users = 4;
  cfg.bandwidth = 30.0;
  cfg.graph.num_pages = 60;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.2;
  cfg.cache_capacity = 12;
  cfg.duration = 120.0;
  cfg.warmup = 20.0;
  cfg.seed = 9;

  ThresholdPolicy off_policy(core::InteractionModel::kModelA);
  const ProxySimResult off = run_proxy_sim(cfg, off_policy);

  TelemetryPlane plane;
  cfg.telemetry = &plane;
  ThresholdPolicy on_policy(core::InteractionModel::kModelA);
  const ProxySimResult on = run_proxy_sim(cfg, on_policy);

  expect_identical(on, off);
  EXPECT_GT(on.requests, 0u);
  // Telemetry actually recorded: rows sampled, spans opened and closed.
  EXPECT_GT(plane.series().size(), 0u);
  EXPECT_GT(plane.spans().opens(), 0u);
  EXPECT_GT(plane.spans().closes(), 0u);
  EXPECT_GT(plane.registry().counter(0), 0u);  // "req.count"
}

TEST(StackDifferential, TraceReplayTelemetryOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;
  cfg.governor = "token-50";  // governed leg: gauges cover the governor too

  ThresholdPolicy off_policy(core::InteractionModel::kModelA);
  const ProxySimResult off = run_trace_replay(trace, cfg, off_policy);

  TelemetryPlane plane;
  cfg.telemetry = &plane;
  ThresholdPolicy on_policy(core::InteractionModel::kModelA);
  const ProxySimResult on = run_trace_replay(trace, cfg, on_policy);

  expect_identical(on, off);
  EXPECT_GT(on.requests, 0u);
  EXPECT_GT(plane.series().size(), 0u);
  EXPECT_GT(plane.spans().opens(), 0u);

  AuditReport report;
  plane.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(StackDifferential, ShardedReplayTelemetryOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult off = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet fleet(TelemetryConfig{}, 3);
  cfg.telemetry = &fleet;
  const ShardedReplayResult on = run_sharded_replay(trace, cfg, factory);

  expect_identical(on.merged, off.merged);
  EXPECT_EQ(on.cross_shard_events, off.cross_shard_events);
  EXPECT_EQ(on.backbone.jobs(), off.backbone.jobs());
  EXPECT_GT(on.merged.requests, 0u);
  // Every shard sampled at the epoch barriers; the merged registry carries
  // both the runtime's and the driver's origin-uplink instruments.
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(fleet.shard(s).series().size(), 0u) << "shard " << s;
  }
  AuditReport report;
  fleet.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Per-shard load stats reconcile with the fleet totals.
  ASSERT_EQ(on.shard_load.size(), 3u);
  std::uint64_t sent = 0, received = 0;
  for (const auto& load : on.shard_load) {
    EXPECT_GT(load.events_executed, 0u);
    sent += load.mailbox_sent;
    received += load.mailbox_received;
  }
  EXPECT_EQ(sent, on.cross_shard_events);
  EXPECT_EQ(received, on.cross_shard_events);
}

// --- divergence detector on vs off: pure observation, bit-identical ---------

TEST(StackDifferential, TraceReplayDetectorOnMatchesOff) {
  // The detector's purity contract (obs/divergence.hpp): with the abort
  // hook disarmed, a replay with a detector attached is bit-identical to
  // one without — it only reads sealed recorder rows at stream-window
  // boundaries. An overloaded leg (low bandwidth) keeps the trend tests
  // exercised, not just evaluated on quiet gauges.
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  // theta 0.6 keeps the link comfortable; theta 0.02 prefetches nearly
  // everything and swamps it, so the stressed leg drives the trend tests
  // over genuinely elevated gauges.
  for (double theta : {0.6, 0.02}) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    // Smaller than the trace so several window-boundary evaluations run,
    // not just the final post-drain pass.
    cfg.stream_window = 1024;

    TelemetryPlane off_plane;
    cfg.telemetry = &off_plane;
    FixedThresholdPolicy off_policy(theta);
    const ProxySimResult off = run_trace_replay(trace, cfg, off_policy);

    TelemetryPlane on_plane;
    DivergenceDetector detector;
    cfg.telemetry = &on_plane;
    cfg.divergence = &detector;  // abort_on_divergence stays false
    FixedThresholdPolicy on_policy(theta);
    const ProxySimResult on = run_trace_replay(trace, cfg, on_policy);

    SCOPED_TRACE("theta=" + std::to_string(theta));
    expect_identical(on, off);
    EXPECT_GT(on.requests, 0u);
    // The replay auto-configured and auto-attached the detector, and it
    // actually ran: evaluations at every stream-window boundary plus the
    // final post-drain pass.
    EXPECT_TRUE(detector.configured());
    EXPECT_GT(detector.num_signals(), 0u);
    EXPECT_GT(detector.evaluations(), 1u);
    // Telemetry rows are identical too (same cadence, same gauges).
    ASSERT_EQ(on_plane.series().size(), off_plane.series().size());
    AuditReport report;
    detector.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(StackDifferential, ShardedReplayDetectorOnMatchesOff) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 2;
  cfg.num_threads = 2;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  TelemetryFleet off_fleet(TelemetryConfig{}, 2);
  cfg.telemetry = &off_fleet;
  const ShardedReplayResult off = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet on_fleet(TelemetryConfig{}, 2);
  DivergenceDetector detector;
  cfg.telemetry = &on_fleet;
  cfg.divergence = &detector;  // abort_on_divergence stays false
  const ShardedReplayResult on = run_sharded_replay(trace, cfg, factory);

  expect_identical(on.merged, off.merged);
  EXPECT_EQ(on.cross_shard_events, off.cross_shard_events);
  EXPECT_EQ(on.backbone.jobs(), off.backbone.jobs());
  EXPECT_GT(on.merged.requests, 0u);
  // One signal set per shard (fleet verdict = worst shard), evaluated on
  // the driver thread at every epoch barrier.
  EXPECT_TRUE(detector.configured());
  EXPECT_GT(detector.num_signals(), 0u);
  EXPECT_GT(detector.evaluations(), 1u);
  for (std::size_t i = 0; i < detector.num_signals(); ++i) {
    EXPECT_EQ(detector.signal_name(i).rfind("shard", 0), 0u) << i;
  }
  AuditReport report;
  detector.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- streamed sources vs in-RAM traces: the out-of-core pipeline ------------

TEST(StackDifferential, TraceReplayStreamedGeneratorMatchesInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;

  ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
  const ProxySimResult ram = run_trace_replay(trace, cfg, ram_policy);

  // Tiny stream window forces many mid-pass run_until() calls — the
  // incremental scheduling must not perturb event order.
  for (std::size_t window : {std::size_t{65536}, std::size_t{7}}) {
    cfg.stream_window = window;
    SyntheticTraceStream stream(trace_cfg);
    ThresholdPolicy stream_policy(core::InteractionModel::kModelA);
    const ProxySimResult streamed = run_trace_replay(stream, cfg, stream_policy);
    SCOPED_TRACE("stream_window=" + std::to_string(window));
    expect_identical(streamed, ram);
    EXPECT_GT(streamed.requests, 0u);
  }
}

TEST(StackDifferential, TraceReplayFileCursorMatchesDecodedInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const std::string path =
      std::string(::testing::TempDir()) + "differential_replay.spt";
  {
    SyntheticTraceStream stream(trace_cfg);
    TraceWriteOptions options;
    options.chunk_records = 512;  // several chunk crossings mid-replay
    write_trace_file(path, stream, options);
  }
  const TraceFile file(path);
  const Trace decoded = file.read_all();

  TraceReplayConfig cfg;
  cfg.bandwidth = 60.0;
  cfg.cache_capacity = 8;

  ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
  const ProxySimResult ram = run_trace_replay(decoded, cfg, ram_policy);

  TraceCursor cursor(file);
  TelemetryPlane plane;  // telemetry on: observation must stay pure here too
  cfg.telemetry = &plane;
  ThresholdPolicy cursor_policy(core::InteractionModel::kModelA);
  const ProxySimResult streamed = run_trace_replay(cursor, cfg, cursor_policy);

  expect_identical(streamed, ram);
  EXPECT_GT(streamed.requests, 0u);
  EXPECT_GT(plane.series().size(), 0u);
  std::remove(path.c_str());
}

TEST(StackDifferential, ShardedReplayStreamedGeneratorMatchesInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult ram = run_sharded_replay(trace, cfg, factory);

  TelemetryFleet fleet(TelemetryConfig{}, 3);
  cfg.telemetry = &fleet;
  SyntheticTraceStream stream(trace_cfg);
  const ShardedReplayResult streamed = run_sharded_replay(stream, cfg, factory);

  expect_identical(streamed.merged, ram.merged);
  EXPECT_EQ(streamed.cross_shard_events, ram.cross_shard_events);
  EXPECT_EQ(streamed.backbone.jobs(), ram.backbone.jobs());
  ASSERT_EQ(streamed.per_shard.size(), ram.per_shard.size());
  for (std::size_t s = 0; s < ram.per_shard.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_identical(streamed.per_shard[s], ram.per_shard[s]);
  }
  EXPECT_GT(streamed.merged.requests, 0u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(fleet.shard(s).series().size(), 0u) << "shard " << s;
  }
}

TEST(StackDifferential, ShardedReplayFileCursorMatchesDecodedInRam) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const std::string path =
      std::string(::testing::TempDir()) + "differential_sharded.spt";
  {
    SyntheticTraceStream stream(trace_cfg);
    TraceWriteOptions options;
    options.chunk_records = 512;
    write_trace_file(path, stream, options);
  }
  const TraceFile file(path);
  const Trace decoded = file.read_all();

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.num_shards = 3;
  cfg.num_threads = 1;
  const PolicyFactory factory = [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };

  const ShardedReplayResult ram = run_sharded_replay(decoded, cfg, factory);

  TraceCursor cursor(file);
  const ShardedReplayResult streamed = run_sharded_replay(cursor, cfg, factory);

  expect_identical(streamed.merged, ram.merged);
  EXPECT_EQ(streamed.cross_shard_events, ram.cross_shard_events);
  EXPECT_EQ(streamed.backbone.jobs(), ram.backbone.jobs());
  EXPECT_GT(streamed.merged.requests, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace specpf
