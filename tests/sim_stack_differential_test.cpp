// Stack differential tests. The frozen digest table pins the results of
// every predictor x cache-kind cell for the generative proxy sim, trace
// replay, and a sharded replay (frozen while the retired pre-arena
// backends still matched the default ones leg for leg). The remaining legs
// pin the purity contracts: telemetry on == off, detector armed-but-disarmed
// == absent, streamed sources == in-RAM traces, and the proxy sim == a
// replay of its own session source.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
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
// predictors x 5 cache kinds; trace replay: 5 cache kinds x capacity
// {8, 24, 48} plus the other 3 replayable predictor kinds, then stream
// windows {1, 97, 250, 1024}, a governed multi-window run and an armed
// divergence abort; 3-shard replay: 5 cache kinds plus PPM). Capacity 48
// is above arena::kInlineResidencyCapacity, so those cells run the slab
// and indexed arenas; 8 and 24 run the inline ones. Each digest covers the
// bit pattern of every numeric ProxySimResult field, so any change to
// simulated behaviour, however small, changes the table. Regenerating is deliberate (one command line):
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
    for (std::size_t capacity :
         {std::size_t{8}, std::size_t{24}, std::size_t{48}}) {
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
  // The replay trace averages 10 requests a user, so no cache above 24
  // items ever evicts and the /24 and /48 cells agree. A dense trace (200
  // requests a user over 200 pages) makes the capacity-48 arenas evict.
  SyntheticTraceConfig dense_trace_cfg = replay_trace_cfg;
  dense_trace_cfg.num_users = 20;
  dense_trace_cfg.num_requests = 4000;
  dense_trace_cfg.graph.num_pages = 200;
  const Trace dense_trace = generate_synthetic_trace(dense_trace_cfg);
  for (CacheKind cache : kDigestCaches) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 48;
    cfg.cache_kind = cache;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    out.emplace_back(std::string("replay-dense/markov/") +
                         cache_kind_name(cache) + "/48",
                     result_digest(run_trace_replay(dense_trace, cfg, policy)));
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
  // Multi-window replays: the cells above fit in one default stream window,
  // so these pin the window-boundary feed. 250 puts the warmup record
  // (index 500 of 5000) exactly on a boundary.
  for (std::size_t window : {std::size_t{1}, std::size_t{97}, std::size_t{250},
                             std::size_t{1024}}) {
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    cfg.stream_window = window;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    out.emplace_back("replay/markov/lru/8/window-" + std::to_string(window),
                     result_digest(
                         run_trace_replay(replay_trace, cfg, policy)));
  }
  {
    // Governed, with telemetry and a disarmed detector evaluated at every
    // window boundary.
    TraceReplayConfig cfg;
    cfg.bandwidth = 60.0;
    cfg.cache_capacity = 8;
    cfg.stream_window = 97;
    cfg.governor = "aimd-3";
    TelemetryPlane plane;
    DivergenceDetector detector;
    cfg.telemetry = &plane;
    cfg.divergence = &detector;
    FixedThresholdPolicy policy(0.02);
    out.emplace_back("replay/markov/lru/8/window-97/aimd-3",
                     result_digest(
                         run_trace_replay(replay_trace, cfg, policy)));
  }
  {
    // Armed divergence abort: demand alone overloads the 30 pages/s link,
    // so the feed stops at a window boundary and the scheduled work drains.
    TraceReplayConfig cfg;
    cfg.bandwidth = 30.0;
    cfg.cache_capacity = 8;
    cfg.stream_window = 256;
    cfg.enable_load_sensor = true;  // the detector watches sensor EWMAs
    cfg.abort_on_divergence = true;
    TelemetryPlane plane;
    DivergenceDetector detector;
    DivergenceConfig detector_cfg;
    detector_cfg.settle_time = 10.0;  // past the 500-record warmup
    detector.configure(detector_cfg);
    cfg.telemetry = &plane;
    cfg.divergence = &detector;
    FixedThresholdPolicy policy(0.02);
    const ProxySimResult r = run_trace_replay(replay_trace, cfg, policy);
    // Guard the cell's purpose: the run really aborted mid-trace.
    if (detector.verdict() != StabilityVerdict::kDivergent ||
        r.requests >= replay_trace.size() - 500) {
      out.emplace_back("replay/markov/lru/8/window-256/abort:not-aborted", 0);
    } else {
      out.emplace_back("replay/markov/lru/8/window-256/abort",
                       result_digest(r));
    }
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
  // Telemetry actually recorded: rows sampled, spans written.
  EXPECT_GT(plane.series().size(), 0u);
  EXPECT_GT(plane.spans().recorded(), 0u);
}

// --- one driver: the proxy sim is a replay of its session source -----------

TEST(StackDifferential, ProxySimMatchesReplayOfItsMaterializedSource) {
  for (auto predictor : {PredictorKind::kMarkov, PredictorKind::kPpm,
                         PredictorKind::kDependencyGraph,
                         PredictorKind::kFrequency}) {
    SCOPED_TRACE(predictor_kind_name(predictor));
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
    ThresholdPolicy proxy_policy(core::InteractionModel::kModelA);
    const ProxySimResult proxy = run_proxy_sim(cfg, proxy_policy);

    SessionTraceSource source = proxy_session_source(cfg);
    Trace trace;
    TraceRecord r;
    while (source.next(&r)) trace.append(r);
    TraceReplayConfig replay_cfg;
    static_cast<StackConfig&>(replay_cfg) = cfg;
    replay_cfg.predictor_kind = predictor;
    replay_cfg.warmup_fraction = cfg.warmup / (cfg.warmup + cfg.duration);
    ThresholdPolicy replay_policy(core::InteractionModel::kModelA);
    const ProxySimResult replay =
        run_trace_replay(trace, replay_cfg, replay_policy);

    expect_identical(proxy, replay);
    EXPECT_EQ(proxy.policy, replay.policy);
    EXPECT_GT(proxy.requests, 0u);
  }
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
  EXPECT_GT(plane.spans().recorded(), 0u);

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
  cfg.stack.divergence = &detector;  // abort_on_divergence stays false
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

// --- armed divergence abort: one rule for every shard count -----------------

/// An overloaded replay: demand alone exceeds the link (50 req/s on a
/// 30 pages/s link) and fixed-0.02 prefetches nearly everything, so the
/// detector turns divergent within the first few windows.
Trace overload_trace() {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 400;
  trace_cfg.num_requests = 6000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  return generate_synthetic_trace(trace_cfg);
}

TraceReplayConfig overload_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 30.0;
  cfg.cache_capacity = 8;
  cfg.stream_window = 256;
  cfg.enable_load_sensor = true;
  cfg.abort_on_divergence = true;
  return cfg;
}

/// Ignores the warmup prefix (12 s of the 120 s trace), whose cold caches
/// look like queue growth, so the abort lands inside the measured window.
DivergenceConfig overload_detector_config() {
  DivergenceConfig config;
  config.settle_time = 12.0;
  return config;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::string out;
  if (f == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

TEST(StackDifferential, ArmedAbortOneShardMatchesFleetOfOne) {
  const Trace trace = overload_trace();
  const auto warmup = static_cast<std::uint64_t>(
      overload_config().warmup_fraction * static_cast<double>(trace.size()));

  // run_trace_replay with a single plane...
  TraceReplayConfig cfg = overload_config();
  TelemetryPlane plane;
  DivergenceDetector plane_detector;
  plane_detector.configure(overload_detector_config());
  cfg.telemetry = &plane;
  cfg.divergence = &plane_detector;
  FixedThresholdPolicy policy(0.02);
  const ProxySimResult replay = run_trace_replay(trace, cfg, policy);

  // ...equals ShardedSim at S = 1 recording into a fleet of one.
  ShardedReplayConfig sharded;
  sharded.stack = overload_config();
  TelemetryFleet fleet(TelemetryConfig{}, 1);
  DivergenceDetector fleet_detector;
  fleet_detector.configure(overload_detector_config());
  sharded.telemetry = &fleet;
  sharded.stack.divergence = &fleet_detector;
  const ShardedReplayResult one = run_sharded_replay(trace, sharded, [] {
    return std::make_unique<FixedThresholdPolicy>(0.02);
  });

  expect_identical(one.merged, replay);
  EXPECT_EQ(plane_detector.verdict(), StabilityVerdict::kDivergent);
  EXPECT_EQ(fleet_detector.verdict(), plane_detector.verdict());
  EXPECT_EQ(fleet_detector.onset_time(), plane_detector.onset_time());
  EXPECT_EQ(fleet_detector.onset_signal(), plane_detector.onset_signal());
  EXPECT_EQ(fleet_detector.evaluations(), plane_detector.evaluations());
  // The abort cut the feed: fewer requests than the post-warmup trace.
  EXPECT_GT(replay.requests, 0u);
  EXPECT_LT(replay.requests, trace.size() - warmup);

  // A fleet of one carries no backbone gauges or barrier rows, so it
  // exports exactly like the single plane.
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_timeseries_csv(dir + "abort_plane.csv", plane));
  ASSERT_TRUE(write_timeseries_csv(dir + "abort_fleet.csv", fleet));
  const std::string plane_csv = read_file(dir + "abort_plane.csv");
  EXPECT_FALSE(plane_csv.empty());
  EXPECT_EQ(read_file(dir + "abort_fleet.csv"), plane_csv);
  std::remove((dir + "abort_plane.csv").c_str());
  std::remove((dir + "abort_fleet.csv").c_str());
}

TEST(StackDifferential, ArmedAbortTwoShardsIdenticalAcrossThreadCounts) {
  const Trace trace = overload_trace();
  const auto warmup = static_cast<std::uint64_t>(
      overload_config().warmup_fraction * static_cast<double>(trace.size()));
  const PolicyFactory factory = [] {
    return std::make_unique<FixedThresholdPolicy>(0.02);
  };
  auto run = [&](std::size_t threads, DivergenceDetector* detector) {
    ShardedReplayConfig cfg;
    cfg.stack = overload_config();
    cfg.stack.divergence = detector;
    cfg.num_shards = 2;
    cfg.num_threads = threads;
    TelemetryFleet fleet(TelemetryConfig{}, 2);
    cfg.telemetry = &fleet;
    return run_sharded_replay(trace, cfg, factory);
  };
  DivergenceDetector serial_detector;
  DivergenceDetector pooled_detector;
  serial_detector.configure(overload_detector_config());
  pooled_detector.configure(overload_detector_config());
  const ShardedReplayResult serial = run(1, &serial_detector);
  const ShardedReplayResult pooled = run(4, &pooled_detector);

  EXPECT_EQ(serial_detector.verdict(), StabilityVerdict::kDivergent);
  EXPECT_GT(serial.merged.requests, 0u);
  EXPECT_LT(serial.merged.requests, trace.size() - warmup);
  // The drain after the abort spans several epochs, none of them judged:
  // one evaluation per barrier up to the abort, then one post-drain.
  EXPECT_LT(serial_detector.evaluations(), serial.epochs);
  EXPECT_EQ(result_digest(pooled.merged), result_digest(serial.merged));
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(result_digest(pooled.per_shard[s]),
              result_digest(serial.per_shard[s]))
        << "shard " << s;
  }
  EXPECT_EQ(pooled.epochs, serial.epochs);
  EXPECT_EQ(pooled.cross_shard_events, serial.cross_shard_events);
  EXPECT_EQ(pooled.backbone.jobs(), serial.backbone.jobs());
  EXPECT_EQ(pooled_detector.verdict(), serial_detector.verdict());
  EXPECT_EQ(pooled_detector.onset_time(), serial_detector.onset_time());
  EXPECT_EQ(pooled_detector.onset_signal(), serial_detector.onset_signal());
}

// --- the stream_window epoch cut ---------------------------------------------

TEST(StackDifferential, OneShardEpochsAreStreamWindows) {
  // At S = 1 nothing but the cap cuts an epoch, so a 5000-record trace in
  // windows of 97 runs ceil(5000 / 97) = 52 epochs, the last one draining.
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 500;
  trace_cfg.num_requests = 5000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 21;
  const Trace trace = generate_synthetic_trace(trace_cfg);
  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = 60.0;
  cfg.stack.cache_capacity = 8;
  cfg.stack.stream_window = 97;
  const ShardedReplayResult r = run_sharded_replay(trace, cfg, [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  });
  EXPECT_EQ(r.epochs, 52u);
}

TEST(StackDifferential, ShardedStreamWindowCapIsDeterministic) {
  // At S > 1 the cap binds only when more than stream_window records
  // arrive within one lookahead: 50 req/s over a 2 s lookahead is ~100
  // records per epoch, so a window of 16 cuts every epoch.
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 300;
  trace_cfg.num_requests = 3000;
  trace_cfg.request_rate = 50.0;
  trace_cfg.graph.num_pages = 80;
  trace_cfg.seed = 33;
  const Trace trace = generate_synthetic_trace(trace_cfg);
  auto run = [&](std::size_t window, std::size_t threads) {
    ShardedReplayConfig cfg;
    cfg.stack.bandwidth = 60.0;
    cfg.stack.cache_capacity = 8;
    cfg.stack.stream_window = window;
    cfg.num_shards = 3;
    cfg.num_threads = threads;
    cfg.backbone_latency = 2.0;
    return run_sharded_replay(trace, cfg, [] {
      return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
    });
  };
  const ShardedReplayResult uncut = run(65536, 1);
  const ShardedReplayResult cut = run(16, 1);
  const ShardedReplayResult cut_pooled = run(16, 3);
  EXPECT_GE(cut.epochs, trace.size() / 16);
  EXPECT_LT(uncut.epochs, cut.epochs);
  EXPECT_EQ(cut.merged.requests, uncut.merged.requests);
  EXPECT_EQ(result_digest(cut_pooled.merged), result_digest(cut.merged));
  EXPECT_EQ(cut_pooled.epochs, cut.epochs);
  EXPECT_EQ(cut_pooled.cross_shard_events, cut.cross_shard_events);
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
