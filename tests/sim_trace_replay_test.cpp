// Trace-driven replay: determinism, paired policy comparisons, and
// equivalence sanity against the generative proxy sim.
#include <gtest/gtest.h>

#include "cache/cache_plane.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

Trace make_session_trace(std::size_t sessions, std::uint64_t seed) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 80;
  gcfg.out_degree = 3;
  gcfg.exit_probability = 0.2;
  gcfg.link_skew = 1.5;
  SessionGraph graph(gcfg, seed);
  Rng rng(seed ^ 0xABCD);
  Trace trace;
  double t = 0.0;
  for (std::size_t s = 0; s < sessions; ++s) {
    t += 0.8;
    for (std::uint64_t page : graph.sample_session(rng)) {
      trace.append({t, static_cast<std::uint32_t>(s % 5), page});
      t += 0.3;
    }
  }
  return trace;
}

TEST(TraceReplay, SmokeAndConservation) {
  const Trace trace = make_session_trace(400, 11);
  TraceReplayConfig cfg;
  cfg.bandwidth = 30.0;
  cfg.cache_capacity = 32;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  // Every post-warmup request is recorded exactly once.
  const auto warmup = static_cast<std::uint64_t>(0.1 * trace.size());
  EXPECT_EQ(r.requests, trace.size() - warmup);
  EXPECT_EQ(r.prefetch_jobs, 0u);
  EXPECT_GT(r.hit_ratio, 0.0);
  EXPECT_LT(r.hit_ratio, 1.0);
}

TEST(TraceReplay, DeterministicAcrossRuns) {
  const Trace trace = make_session_trace(200, 13);
  TraceReplayConfig cfg;
  ThresholdPolicy p1(core::InteractionModel::kModelA);
  ThresholdPolicy p2(core::InteractionModel::kModelA);
  const auto a = run_trace_replay(trace, cfg, p1);
  const auto b = run_trace_replay(trace, cfg, p2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
}

TEST(TraceReplay, PairedPoliciesSeeIdenticalRequests) {
  const Trace trace = make_session_trace(300, 17);
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  FixedThresholdPolicy spray(0.05);
  const auto a = run_trace_replay(trace, cfg, none);
  const auto b = run_trace_replay(trace, cfg, spray);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_GT(b.prefetch_jobs, 0u);
  EXPECT_GT(b.hit_ratio, a.hit_ratio);  // prefetching converts misses
}

TEST(TraceReplay, PrefetchingImprovesAccessTimeOnPredictableTrace) {
  const Trace trace = make_session_trace(600, 19);
  TraceReplayConfig cfg;
  cfg.bandwidth = 40.0;
  cfg.cache_capacity = 24;
  NoPrefetchPolicy none;
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto base = run_trace_replay(trace, cfg, none);
  const auto pref = run_trace_replay(trace, cfg, threshold);
  EXPECT_LT(pref.mean_access_time, base.mean_access_time);
}

TEST(TraceReplay, AllPredictorsRun) {
  const Trace trace = make_session_trace(150, 23);
  for (auto kind : {TraceReplayConfig::PredictorKind::kMarkov,
                    TraceReplayConfig::PredictorKind::kPpm,
                    TraceReplayConfig::PredictorKind::kDependencyGraph,
                    TraceReplayConfig::PredictorKind::kFrequency}) {
    TraceReplayConfig cfg;
    cfg.predictor_kind = kind;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto r = run_trace_replay(trace, cfg, policy);
    EXPECT_GT(r.requests, 0u);
  }
}

TEST(TraceReplay, RejectsEmptyAndUnsortedTraces) {
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  EXPECT_THROW(run_trace_replay(Trace{}, cfg, none), ContractViolation);
  Trace unsorted;
  unsorted.append({5.0, 0, 1});
  unsorted.append({1.0, 0, 2});
  EXPECT_THROW(run_trace_replay(unsorted, cfg, none), ContractViolation);
}

TEST(TraceReplay, RejectsRetiredBackendSelectors) {
  // The legacy backends are gone; the flags and factory parameters that
  // named them survive only for source compatibility and refuse `true`.
  for (int flag = 0; flag < 3; ++flag) {
    TraceReplayConfig cfg;
    cfg.use_tree_inflight = flag == 0;
    cfg.use_legacy_caches = flag == 1;
    cfg.use_legacy_predictors = flag == 2;
    EXPECT_THROW(cfg.validate(), ContractViolation) << "flag " << flag;
  }
  EXPECT_THROW(make_replay_predictor(PredictorKind::kMarkov, 4, true),
               ContractViolation);
  CachePlaneConfig plane_cfg;
  EXPECT_THROW(make_cache_plane(CacheKind::kLru, plane_cfg, true),
               ContractViolation);
}

TEST(TraceReplay, SparseUserIdsAreDensified) {
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.append({static_cast<double>(i), 1000000u + (i % 3) * 7919u,
                  static_cast<std::uint64_t>(i % 10)});
  }
  TraceReplayConfig cfg;
  cfg.warmup_fraction = 0.0;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  EXPECT_EQ(r.requests, 50u);
}

}  // namespace
}  // namespace specpf
