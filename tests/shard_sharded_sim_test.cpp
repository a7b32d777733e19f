// Sharded runtime: run_trace_replay against a factory-built 1-shard fleet,
// bit-determinism across worker thread counts, conservative-epoch
// cross-shard traffic, the telemetry config rules, and the user→shard
// trace partition.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "reference/trace_partition.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/contract.hpp"
#include "workload/synthetic_trace.hpp"

namespace specpf {
namespace {

Trace make_trace(std::size_t users = 3000, std::size_t requests = 30000,
                 std::uint64_t seed = 77) {
  SyntheticTraceConfig cfg;
  cfg.num_users = users;
  cfg.num_requests = requests;
  cfg.request_rate = 300.0;
  cfg.graph.num_pages = 200;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.graph.link_skew = 1.6;
  cfg.seed = seed;
  return generate_synthetic_trace(cfg);
}

TraceReplayConfig replay_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 400.0;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.max_prefetch_per_request = 4;
  cfg.seed = 99;
  return cfg;
}

ShardedReplayConfig sharded_config(std::size_t shards, std::size_t threads) {
  ShardedReplayConfig cfg;
  cfg.stack = replay_config();
  cfg.num_shards = shards;
  cfg.num_threads = threads;
  cfg.backbone_latency = 0.05;
  cfg.backbone_bandwidth = 2000.0;
  return cfg;
}

PolicyFactory threshold_factory() {
  return [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
}

// Exact equality, field by field: "bit-identical" is the contract.
void expect_result_eq(const ProxySimResult& a, const ProxySimResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.access_time_std_error, b.access_time_std_error);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.server_utilization, b.server_utilization);
  EXPECT_EQ(a.retrieval_time_per_request, b.retrieval_time_per_request);
  EXPECT_EQ(a.retrievals_per_request, b.retrievals_per_request);
  EXPECT_EQ(a.hprime_estimate, b.hprime_estimate);
  EXPECT_EQ(a.prefetch_useful_fraction, b.prefetch_useful_fraction);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.wasted_prefetch_evictions, b.wasted_prefetch_evictions);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_EQ(a.mean_inflight_wait, b.mean_inflight_wait);
  EXPECT_EQ(a.mean_demand_sojourn, b.mean_demand_sojourn);
}

void expect_backbone_eq(const BackboneStats& a, const BackboneStats& b) {
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.total_service_demand, b.total_service_demand);
}

TEST(ShardedSim, OneShardMatchesUnshardedReplay) {
  const Trace trace = make_trace();
  const TraceReplayConfig cfg = replay_config();

  ThresholdPolicy unsharded_policy(core::InteractionModel::kModelA);
  const ProxySimResult unsharded =
      run_trace_replay(trace, cfg, unsharded_policy);

  const ShardedReplayResult sharded =
      run_sharded_replay(trace, sharded_config(1, 1), threshold_factory());

  EXPECT_GT(unsharded.requests, 0u);
  EXPECT_GT(unsharded.prefetch_jobs, 0u);
  expect_result_eq(sharded.merged, unsharded);
  ASSERT_EQ(sharded.per_shard.size(), 1u);
  expect_result_eq(sharded.per_shard[0], unsharded);
  EXPECT_EQ(sharded.cross_shard_events, 0u);
  EXPECT_EQ(sharded.backbone.jobs(), 0u);
}

// The seed path matters too: the random cache kind draws per-user eviction
// streams from the root seed, which shard 0 must inherit verbatim.
TEST(ShardedSim, OneShardMatchesUnshardedReplayWithRandomCache) {
  const Trace trace = make_trace(800, 12000, 5);
  TraceReplayConfig cfg = replay_config();
  cfg.cache_kind = ProxySimConfig::CacheKind::kRandom;

  ThresholdPolicy policy(core::InteractionModel::kModelA);
  const ProxySimResult unsharded = run_trace_replay(trace, cfg, policy);

  ShardedReplayConfig scfg = sharded_config(1, 1);
  scfg.stack = cfg;
  const ShardedReplayResult sharded =
      run_sharded_replay(trace, scfg, threshold_factory());
  expect_result_eq(sharded.merged, unsharded);
}

TEST(ShardedSim, EmptySourceGivesTheAllZeroResultUnderThePolicyName) {
  const Trace empty;
  ProxySimResult zero;
  zero.policy = "threshold-A";
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    TraceVectorSource source(empty);
    const ShardedReplayResult r = run_sharded_replay(
        source, sharded_config(shards, 1), threshold_factory());
    expect_result_eq(r.merged, zero);
    EXPECT_EQ(r.merged.access_time_p99, 0.0);
    EXPECT_EQ(r.epochs, 0u);
    ASSERT_EQ(r.per_shard.size(), shards);
    EXPECT_EQ(r.backbone.jobs(), 0u);
  }
  // The borrowed-policy form (run_trace_replay's) names the caller's.
  TraceVectorSource source(empty);
  NoPrefetchPolicy none;
  ShardedSim sim(source, sharded_config(1, 1), none);
  zero.policy = "none";
  expect_result_eq(sim.run().merged, zero);
}

TEST(ShardedSim, DeterministicAcrossThreadCounts) {
  const Trace trace = make_trace();
  ShardedReplayResult runs[3];
  const std::size_t thread_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    runs[i] = run_sharded_replay(trace, sharded_config(8, thread_counts[i]),
                                 threshold_factory());
  }
  EXPECT_GT(runs[0].cross_shard_events, 0u);
  EXPECT_GT(runs[0].epochs, 0u);
  for (int i = 1; i < 3; ++i) {
    expect_result_eq(runs[i].merged, runs[0].merged);
    expect_backbone_eq(runs[i].backbone, runs[0].backbone);
    EXPECT_EQ(runs[i].epochs, runs[0].epochs);
    EXPECT_EQ(runs[i].cross_shard_events, runs[0].cross_shard_events);
    ASSERT_EQ(runs[i].per_shard.size(), runs[0].per_shard.size());
    for (std::size_t s = 0; s < runs[0].per_shard.size(); ++s) {
      expect_result_eq(runs[i].per_shard[s], runs[0].per_shard[s]);
    }
  }
}

TEST(ShardedSim, CrossShardTrafficFlowsToHomeShards) {
  const Trace trace = make_trace(2000, 20000, 13);
  const ShardedReplayResult r =
      run_sharded_replay(trace, sharded_config(4, 1), threshold_factory());

  // With items homed by item % 4, roughly 3/4 of retrievals cross shards.
  EXPECT_GT(r.cross_shard_events, 0u);
  // Backbone counters reset at the warmup boundary; the raw event count
  // covers the whole run.
  EXPECT_LE(r.backbone.jobs(), r.cross_shard_events);
  EXPECT_GT(r.backbone.demand_jobs, 0u);
  EXPECT_GT(r.backbone.prefetch_jobs, 0u);
  EXPECT_GT(r.backbone.utilization, 0.0);
  // The fleet still serves every request exactly once.
  EXPECT_EQ(r.merged.requests, trace.size() -
                                   static_cast<std::size_t>(
                                       0.1 * static_cast<double>(trace.size())));
}

TEST(ShardedSim, UserlessShardStillServesHomedItems) {
  // Users all map to shard 0 of 2 (even ids); odd items are homed on the
  // userless shard 1, which must accumulate the backbone load for them.
  std::vector<TraceRecord> records;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += 0.01;
    records.push_back(
        {t, static_cast<std::uint32_t>((i % 40) * 2),
         static_cast<std::uint64_t>(i % 21)});
  }
  const Trace trace(std::move(records));
  ShardedReplayConfig cfg = sharded_config(2, 1);
  const ShardedReplayResult r =
      run_sharded_replay(trace, cfg, threshold_factory());
  EXPECT_GT(r.cross_shard_events, 0u);
  EXPECT_GT(r.backbone.jobs(), 0u);
  ASSERT_EQ(r.per_shard.size(), 2u);
  EXPECT_GT(r.per_shard[0].requests, 0u);
  EXPECT_EQ(r.per_shard[1].requests, 0u);
}

TEST(ShardedSim, NoPrefetchPolicyProducesNoPrefetchBackboneTraffic) {
  const Trace trace = make_trace(1000, 10000, 3);
  const ShardedReplayResult r = run_sharded_replay(
      trace, sharded_config(4, 1),
      [] { return std::make_unique<NoPrefetchPolicy>(); });
  EXPECT_EQ(r.merged.prefetch_jobs, 0u);
  EXPECT_EQ(r.backbone.prefetch_jobs, 0u);
  EXPECT_GT(r.backbone.demand_jobs, 0u);
}

TEST(ShardedSim, SinglePlaneOnlyAtOneShardWithoutFleet) {
  // One plane serves one engine: a stack plane is accepted at S = 1 only,
  // and never beside a fleet; a detector needs one of the two.
  TelemetryPlane plane;
  TelemetryFleet fleet_of_one(TelemetryConfig{}, 1);
  DivergenceDetector detector;

  ShardedReplayConfig one = sharded_config(1, 1);
  one.stack.telemetry = &plane;
  one.stack.divergence = &detector;
  EXPECT_NO_THROW(one.validate());
  one.telemetry = &fleet_of_one;
  EXPECT_THROW(one.validate(), ContractViolation);

  ShardedReplayConfig two = sharded_config(2, 1);
  two.stack.telemetry = &plane;
  EXPECT_THROW(two.validate(), ContractViolation);

  ShardedReplayConfig blind = sharded_config(2, 1);
  blind.stack.divergence = &detector;
  EXPECT_THROW(blind.validate(), ContractViolation);
  TelemetryFleet fleet(TelemetryConfig{}, 2);
  blind.telemetry = &fleet;
  EXPECT_NO_THROW(blind.validate());

  ShardedReplayConfig unbounded = sharded_config(2, 1);
  unbounded.backbone_latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(unbounded.validate(), ContractViolation);
}

// The in-flight key packs (user, item) into 64 bits, so the metadata scan
// refuses an item id of 2^32 or more by record, before any event runs.
TEST(ShardedSim, RejectsItemIdsBeyondTheInflightKey) {
  const std::uint64_t item = std::uint64_t{1} << 32;
  const Trace trace(std::vector<TraceRecord>{{1.0, 0, item}});
  try {
    ShardedSim sim(trace, sharded_config(1, 1), threshold_factory());
    FAIL() << "an item id of 2^32 was accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace record 0"), std::string::npos) << what;
    EXPECT_NE(what.find("item " + std::to_string(item)), std::string::npos)
        << what;
  }
  // The largest id that fits replays.
  const Trace fits(std::vector<TraceRecord>{{1.0, 0, item - 1}});
  ShardedSim sim(fits, sharded_config(1, 1), threshold_factory());
  EXPECT_EQ(sim.run().merged.requests, 1u);
}

TEST(TracePartition, PartitionByUserPreservesOrderAndCoverage) {
  const Trace trace = make_trace(64, 5000, 21);
  const auto parts = partition_by_user(trace, 8);
  ASSERT_EQ(parts.size(), 8u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    total += parts[s].size();
    EXPECT_TRUE(parts[s].is_time_ordered());
    for (const auto& r : parts[s].records()) {
      EXPECT_EQ(r.user % 8, s);
    }
  }
  EXPECT_EQ(total, trace.size());

  const auto whole = partition_by_user(trace, 1);
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(whole[0].size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(whole[0].records()[i].time, trace.records()[i].time);
    EXPECT_EQ(whole[0].records()[i].user, trace.records()[i].user);
    EXPECT_EQ(whole[0].records()[i].item, trace.records()[i].item);
  }
}

TEST(SimulatorEpochHook, NextEventTimeTracksQueue) {
  Simulator sim;
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });
  const TimerId early = sim.add_timer([&] { ++fired; });
  sim.arm_timer(early, 1.0);
  EXPECT_EQ(sim.next_event_time(), 1.0);
  sim.disarm_timer(early);
  EXPECT_EQ(sim.next_event_time(), 2.0);  // the disarmed timer drops out
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(std::isinf(sim.next_event_time()));
}

}  // namespace
}  // namespace specpf
