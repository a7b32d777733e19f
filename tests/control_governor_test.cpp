// The prefetch control plane: governor unit behaviour, the name factory,
// runtime wiring (feedback + throttle accounting), the no-op differential
// (installing the control plane must be bit-identical to running without
// it), and bit-determinism of governed sharded runs across worker-thread
// counts.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "control/governor.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/stack_runtime.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace specpf {
namespace {

core::Candidate candidate(double p) { return {1, p}; }

LoadSignals calm() { return {}; }

LoadSignals congested(double slowdown) {
  LoadSignals s;
  s.slowdown = slowdown;
  s.utilization = 1.0;
  s.queue_depth = 100.0;
  return s;
}

// --- unit behaviour ---------------------------------------------------------

TEST(TokenBucketGovernor, SpendsAndRefillsPerGroup) {
  GovernorConfig cfg;
  cfg.token_rate = 10.0;         // 10 bytes/s per group
  cfg.token_burst_seconds = 1.0;  // burst 10
  cfg.token_groups = 4;
  TokenBucketGovernor gov(cfg);

  // Burst: 10 admissions of size 1 at t=0, then dry.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(gov.admit(0.0, /*user=*/0, candidate(0.9), 1.0, calm()));
  }
  EXPECT_FALSE(gov.admit(0.0, 0, candidate(0.9), 1.0, calm()));
  // Other groups have their own buckets.
  EXPECT_TRUE(gov.admit(0.0, 1, candidate(0.9), 1.0, calm()));
  // Half a second refills 5 tokens for group 0 (users 0, 4, 8, ... fold in).
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(gov.admit(0.5, 4, candidate(0.9), 1.0, calm())) << i;
  }
  EXPECT_FALSE(gov.admit(0.5, 0, candidate(0.9), 1.0, calm()));
  // Refill clamps at the burst: after a long idle stretch exactly 10 fit.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(gov.admit(100.0, 0, candidate(0.9), 1.0, calm()));
  }
  EXPECT_FALSE(gov.admit(100.0, 0, candidate(0.9), 1.0, calm()));
}

TEST(AimdGovernor, ThrottlesUnderCongestionAndRecovers) {
  GovernorConfig cfg;
  cfg.aimd_setpoint = 2.0;
  cfg.aimd_interval = 1.0;
  cfg.aimd_mult = 2.0;
  cfg.aimd_decrease = 0.05;
  cfg.aimd_kick = 0.1;
  AimdGovernor gov(cfg);

  // θ starts at 0: everything the policy selected is admitted.
  EXPECT_TRUE(gov.admit(0.0, 0, candidate(0.01), 1.0, calm()));
  EXPECT_EQ(gov.theta(), 0.0);

  // Sustained congestion: θ kicks to 0.1 then doubles per interval.
  EXPECT_TRUE(gov.admit(1.5, 0, candidate(0.5), 1.0, congested(10.0)));
  EXPECT_DOUBLE_EQ(gov.theta(), 0.1);
  gov.admit(2.5, 0, candidate(0.5), 1.0, congested(10.0));
  EXPECT_DOUBLE_EQ(gov.theta(), 0.2);
  gov.admit(3.5, 0, candidate(0.5), 1.0, congested(10.0));
  EXPECT_DOUBLE_EQ(gov.theta(), 0.4);
  // A weak candidate is now refused, a strong one still passes.
  EXPECT_FALSE(gov.admit(3.6, 0, candidate(0.3), 1.0, congested(10.0)));
  EXPECT_TRUE(gov.admit(3.7, 0, candidate(0.9), 1.0, congested(10.0)));

  // Calm again: additive decay, 0.05 per interval.
  gov.admit(4.5, 0, candidate(0.5), 1.0, calm());
  EXPECT_NEAR(gov.theta(), 0.35, 1e-12);
  gov.admit(5.5, 0, candidate(0.5), 1.0, calm());
  EXPECT_NEAR(gov.theta(), 0.30, 1e-12);
}

TEST(AimdGovernor, ReactsToFleetSignalFromEpochBarrier) {
  GovernorConfig cfg;
  cfg.aimd_setpoint = 2.0;
  cfg.aimd_interval = 1.0;
  cfg.aimd_kick = 0.1;
  AimdGovernor gov(cfg);
  gov.admit(0.0, 0, candidate(0.5), 1.0, calm());  // arm the interval clock
  // Local link calm, but the fleet reports congestion past the setpoint.
  gov.set_fleet_signal(5.0);
  gov.admit(1.5, 0, candidate(0.5), 1.0, calm());
  EXPECT_DOUBLE_EQ(gov.theta(), 0.1);
}

TEST(ConfidenceGovernor, CutsDepthAsPrecisionDrops) {
  GovernorConfig cfg;
  cfg.conf_alpha = 0.5;
  // Exactly representable thresholds so the depth fractions are exact.
  cfg.conf_high = 0.75;
  cfg.conf_low = 0.25;
  ConfidenceGovernor gov(cfg);

  // Optimistic start: full depth.
  EXPECT_EQ(gov.precision(), 1.0);
  EXPECT_EQ(gov.depth_limit(8), 8u);

  gov.on_prefetch_wasted();  // precision 0.5 → fraction 0.25/0.5 = 0.5
  EXPECT_EQ(gov.depth_limit(8), 4u);
  gov.on_prefetch_wasted();  // 0.25 → fraction 0 → depth 0
  EXPECT_EQ(gov.depth_limit(8), 0u);
  gov.on_prefetch_useful();  // 0.625 → fraction 0.75 → 6
  EXPECT_EQ(gov.depth_limit(8), 6u);
  gov.on_prefetch_useful();  // 0.8125 >= high → full depth
  EXPECT_EQ(gov.depth_limit(8), 8u);
  // admit() itself never refuses.
  EXPECT_TRUE(gov.admit(0.0, 0, candidate(0.0), 1.0, congested(100.0)));
}

TEST(GovernorFactory, BuildsByNameAndRejectsUnknown) {
  EXPECT_NE(make_governor_by_name("noop"), nullptr);
  auto token = make_governor_by_name("token-123.5");
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->name(), "token-123.5");
  auto aimd = make_governor_by_name("aimd-2.5");
  ASSERT_NE(aimd, nullptr);
  EXPECT_EQ(aimd->name(), "aimd-2.5");
  auto conf = make_governor_by_name("conf-0.4");
  ASSERT_NE(conf, nullptr);
  EXPECT_EQ(conf->name(), "conf-0.4");
  EXPECT_EQ(make_governor_by_name(""), nullptr);
  EXPECT_EQ(make_governor_by_name("bogus"), nullptr);
  EXPECT_EQ(make_governor_by_name("token-"), nullptr);
  // Strict suffix parsing: trailing garbage is a typo, not a rate.
  EXPECT_EQ(make_governor_by_name("token-200x"), nullptr);
  EXPECT_EQ(make_governor_by_name("aimd-3;"), nullptr);
  EXPECT_TRUE(is_governor_name("token-200"));
  EXPECT_TRUE(is_governor_name("noop"));
  EXPECT_FALSE(is_governor_name("token-200x"));
  EXPECT_FALSE(is_governor_name(""));
}

class GovernorByName : public ::testing::TestWithParam<const char*> {};

TEST_P(GovernorByName, NonFiniteOrNonPositiveSuffixIsUnknown) {
  // Each of these used to parse and then abort in the constructor's
  // contract check (or run with a NaN knob); now the name is unknown.
  EXPECT_EQ(make_governor_by_name(GetParam()), nullptr) << GetParam();
  EXPECT_FALSE(is_governor_name(GetParam())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Spellings, GovernorByName,
                         ::testing::Values("conf-nan", "token-inf", "aimd--3",
                                           "token-0", "conf-0", "aimd-nan",
                                           "token--inf", "conf- 0.5",
                                           "aimd-+2"));

// --- trace fixtures ---------------------------------------------------------

Trace make_flash_trace(std::size_t users = 3000, std::size_t requests = 40000,
                       std::uint64_t seed = 77) {
  SyntheticTraceConfig cfg;
  cfg.num_users = users;
  cfg.num_requests = requests;
  cfg.request_rate = 800.0;
  cfg.graph.num_pages = 200;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.graph.link_skew = 1.6;
  cfg.seed = seed;
  const double span = static_cast<double>(requests) / cfg.request_rate;
  EXPECT_TRUE(make_scenario_modulation("flash", span, 8, &cfg.modulation));
  return cfg.modulation.kind == ArrivalModulation::Kind::kFlashCrowd
             ? generate_synthetic_trace(cfg)
             : Trace{};
}

TraceReplayConfig replay_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 4000.0;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.max_prefetch_per_request = 4;
  cfg.seed = 99;
  return cfg;
}

void expect_result_eq(const ProxySimResult& a, const ProxySimResult& b) {
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.access_time_std_error, b.access_time_std_error);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.server_utilization, b.server_utilization);
  EXPECT_EQ(a.retrieval_time_per_request, b.retrieval_time_per_request);
  EXPECT_EQ(a.hprime_estimate, b.hprime_estimate);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.wasted_prefetch_evictions, b.wasted_prefetch_evictions);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_EQ(a.mean_inflight_wait, b.mean_inflight_wait);
  EXPECT_EQ(a.mean_demand_sojourn, b.mean_demand_sojourn);
  EXPECT_EQ(a.throttled_prefetches, b.throttled_prefetches);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.peak_slowdown, b.peak_slowdown);
}

// --- runtime wiring ---------------------------------------------------------

// Installing the no-op governor (which senses but never refuses) must be
// bit-identical to the ungoverned runtime on everything the ungoverned
// runtime measures.
TEST(ControlPlaneWiring, NoopGovernorIsBitIdenticalToUngoverned) {
  const Trace trace = make_flash_trace();
  TraceReplayConfig cfg = replay_config();

  FixedThresholdPolicy aggressive(0.05);
  const ProxySimResult plain = run_trace_replay(trace, cfg, aggressive);

  cfg.governor = "noop";
  FixedThresholdPolicy aggressive2(0.05);
  const ProxySimResult noop = run_trace_replay(trace, cfg, aggressive2);

  EXPECT_GT(plain.prefetch_jobs, 0u);
  EXPECT_EQ(noop.throttled_prefetches, 0u);
  // The noop run carries sensor peaks (its governor turns the sensor on);
  // every dynamics-and-metrics field must match bit for bit.
  EXPECT_EQ(noop.mean_access_time, plain.mean_access_time);
  EXPECT_EQ(noop.hit_ratio, plain.hit_ratio);
  EXPECT_EQ(noop.server_utilization, plain.server_utilization);
  EXPECT_EQ(noop.requests, plain.requests);
  EXPECT_EQ(noop.demand_jobs, plain.demand_jobs);
  EXPECT_EQ(noop.prefetch_jobs, plain.prefetch_jobs);
  EXPECT_EQ(noop.inflight_hits, plain.inflight_hits);
  EXPECT_EQ(noop.wasted_prefetch_evictions, plain.wasted_prefetch_evictions);
  EXPECT_EQ(noop.hprime_estimate, plain.hprime_estimate);
  EXPECT_EQ(noop.mean_demand_sojourn, plain.mean_demand_sojourn);
}

// Enabling the sensor without a governor is pure observation: everything
// except the peak_* fields matches the sensor-less run bit for bit.
TEST(ControlPlaneWiring, SensorAloneIsPureObservation) {
  const Trace trace = make_flash_trace(1000, 15000, 5);
  TraceReplayConfig cfg = replay_config();

  FixedThresholdPolicy p1(0.05);
  const ProxySimResult off = run_trace_replay(trace, cfg, p1);
  cfg.enable_load_sensor = true;
  FixedThresholdPolicy p2(0.05);
  const ProxySimResult on = run_trace_replay(trace, cfg, p2);

  EXPECT_EQ(off.peak_queue_depth, 0.0);
  EXPECT_GT(on.peak_queue_depth, 0.0);
  EXPECT_EQ(on.mean_access_time, off.mean_access_time);
  EXPECT_EQ(on.hit_ratio, off.hit_ratio);
  EXPECT_EQ(on.requests, off.requests);
  EXPECT_EQ(on.demand_jobs, off.demand_jobs);
  EXPECT_EQ(on.prefetch_jobs, off.prefetch_jobs);
  EXPECT_EQ(on.server_utilization, off.server_utilization);
}

// A congested flash crowd with a binding governor must actually throttle,
// shrink the measured peak, and not lose instant (zero-wait) hits.
TEST(ControlPlaneWiring, GovernedRunThrottlesAndCutsPeakLoad) {
  const Trace trace = make_flash_trace();
  TraceReplayConfig cfg = replay_config();
  cfg.enable_load_sensor = true;

  FixedThresholdPolicy aggressive(0.05);
  const ProxySimResult plain = run_trace_replay(trace, cfg, aggressive);

  cfg.governor = "aimd-3";
  FixedThresholdPolicy aggressive2(0.05);
  const ProxySimResult governed = run_trace_replay(trace, cfg, aggressive2);

  EXPECT_GT(governed.throttled_prefetches, 0u);
  EXPECT_LT(governed.prefetch_jobs, plain.prefetch_jobs);
  EXPECT_LT(governed.peak_queue_depth, plain.peak_queue_depth);
  EXPECT_LT(governed.peak_slowdown, plain.peak_slowdown);
  EXPECT_LE(governed.mean_access_time, plain.mean_access_time);
}

// The confidence governor reacts to a misleading predictor by cutting
// depth, which shows up as throttled prefetches and less prefetch traffic.
TEST(ControlPlaneWiring, ConfidenceGovernorThrottlesWastefulPrefetching) {
  const Trace trace = make_flash_trace(500, 20000, 11);
  TraceReplayConfig cfg = replay_config();
  cfg.bandwidth = 50000.0;  // uncongested: only precision can throttle
  cfg.cache_capacity = 4;   // tiny caches: speculative inserts get evicted
  // Frequency prediction on session-graph traffic wastes heavily.
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kFrequency;
  cfg.governor_config.conf_alpha = 0.05;

  FixedThresholdPolicy aggressive(0.0);
  const ProxySimResult plain = run_trace_replay(trace, cfg, aggressive);

  cfg.governor = "conf-0.6";
  FixedThresholdPolicy aggressive2(0.0);
  const ProxySimResult governed = run_trace_replay(trace, cfg, aggressive2);

  EXPECT_GT(governed.throttled_prefetches, 0u);
  EXPECT_LT(governed.prefetch_jobs, plain.prefetch_jobs);
  EXPECT_LT(governed.wasted_prefetch_evictions,
            plain.wasted_prefetch_evictions);
}

// --- sharded determinism ----------------------------------------------------

TEST(ControlPlaneSharded, GovernedRunsBitIdenticalAcross128Threads) {
  const Trace trace = make_flash_trace();
  for (const char* governor : {"token-5", "aimd-3"}) {
    ShardedReplayConfig cfg;
    cfg.stack = replay_config();
    // Per-shard links sized so the flash crowd congests each region and
    // both governors actually bind.
    cfg.stack.bandwidth = 500.0;
    cfg.stack.governor = governor;
    cfg.num_shards = 8;
    cfg.backbone_latency = 0.05;
    cfg.backbone_bandwidth = 8000.0;
    const PolicyFactory factory = [] {
      return std::make_unique<FixedThresholdPolicy>(0.05);
    };

    ShardedReplayResult runs[3];
    const std::size_t thread_counts[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
      cfg.num_threads = thread_counts[i];
      runs[i] = run_sharded_replay(trace, cfg, factory);
    }
    EXPECT_GT(runs[0].merged.throttled_prefetches, 0u) << governor;
    EXPECT_GT(runs[0].cross_shard_events, 0u);
    for (int i = 1; i < 3; ++i) {
      expect_result_eq(runs[i].merged, runs[0].merged);
      EXPECT_EQ(runs[i].epochs, runs[0].epochs) << governor;
      EXPECT_EQ(runs[i].cross_shard_events, runs[0].cross_shard_events);
      EXPECT_EQ(runs[i].backbone.peak_queue_depth,
                runs[0].backbone.peak_queue_depth);
      EXPECT_EQ(runs[i].backbone.peak_slowdown,
                runs[0].backbone.peak_slowdown);
      ASSERT_EQ(runs[i].per_shard.size(), runs[0].per_shard.size());
      for (std::size_t s = 0; s < runs[0].per_shard.size(); ++s) {
        expect_result_eq(runs[i].per_shard[s], runs[0].per_shard[s]);
      }
    }
  }
}

// 1-shard governed run must match the unsharded governed replay bit for
// bit (shard 0 inherits the root seed; the setpoint exchange is a no-op at
// S = 1, mirroring the mailbox rule).
TEST(ControlPlaneSharded, OneShardGovernedMatchesUnshardedGoverned) {
  const Trace trace = make_flash_trace(800, 12000, 5);
  TraceReplayConfig cfg = replay_config();
  cfg.governor = "token-50";

  FixedThresholdPolicy policy(0.05);
  const ProxySimResult unsharded = run_trace_replay(trace, cfg, policy);

  ShardedReplayConfig scfg;
  scfg.stack = cfg;
  scfg.num_shards = 1;
  scfg.num_threads = 1;
  const ShardedReplayResult sharded = run_sharded_replay(
      trace, scfg, [] { return std::make_unique<FixedThresholdPolicy>(0.05); });
  expect_result_eq(sharded.merged, unsharded);
}

}  // namespace
}  // namespace specpf
