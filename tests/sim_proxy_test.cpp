// Full-stack proxy simulation: smoke, conservation, and directional
// (shape) properties of the end-to-end system.
#include <gtest/gtest.h>

#include <memory>

#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"

namespace specpf {
namespace {

ProxySimConfig small_config() {
  ProxySimConfig cfg;
  cfg.num_users = 4;
  cfg.bandwidth = 40.0;
  cfg.graph.num_pages = 60;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.2;
  cfg.session_rate_per_user = 0.8;
  cfg.think_time_mean = 0.4;
  cfg.cache_capacity = 24;
  cfg.duration = 600.0;
  cfg.warmup = 100.0;
  cfg.seed = 7;
  return cfg;
}

TEST(ProxySim, SmokeRunProducesTraffic) {
  auto cfg = small_config();
  NoPrefetchPolicy policy;
  const auto result = run_proxy_sim(cfg, policy);
  EXPECT_GT(result.requests, 500u);
  EXPECT_GT(result.demand_jobs, 0u);
  EXPECT_EQ(result.prefetch_jobs, 0u);
  EXPECT_GT(result.hit_ratio, 0.0);
  EXPECT_LT(result.hit_ratio, 1.0);
  EXPECT_GT(result.server_utilization, 0.0);
  EXPECT_LT(result.server_utilization, 1.0);
  EXPECT_EQ(result.policy, "none");
}

TEST(ProxySim, EmptyWindowGivesTheAllZeroResult) {
  // No request falls inside a 0.11 ms run: nothing is simulated, and the
  // result is all zero under the policy's name.
  auto cfg = small_config();
  cfg.num_users = 1;
  cfg.duration = 0.0001;
  cfg.warmup = cfg.duration / 10.0;
  NoPrefetchPolicy policy;
  const auto r = run_proxy_sim(cfg, policy);
  EXPECT_EQ(r.policy, "none");
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.demand_jobs, 0u);
  EXPECT_EQ(r.mean_access_time, 0.0);
  EXPECT_EQ(r.access_time_p99, 0.0);
  EXPECT_EQ(r.hit_ratio, 0.0);
  EXPECT_EQ(r.server_utilization, 0.0);
  EXPECT_EQ(r.hprime_estimate, 0.0);
}

TEST(ProxySim, DeterministicGivenSeed) {
  auto cfg = small_config();
  cfg.duration = 200.0;
  NoPrefetchPolicy p1, p2;
  const auto a = run_proxy_sim(cfg, p1);
  const auto b = run_proxy_sim(cfg, p2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
}

TEST(ProxySim, PrefetchingRaisesHitRatioWithOracle) {
  auto cfg = small_config();
  cfg.predictor_kind = ProxySimConfig::PredictorKind::kOracle;
  NoPrefetchPolicy none;
  FixedThresholdPolicy aggressive(0.05);
  const auto base = run_proxy_sim(cfg, none);
  const auto pref = run_proxy_sim(cfg, aggressive);
  EXPECT_GT(pref.hit_ratio, base.hit_ratio);
  EXPECT_GT(pref.prefetch_jobs, 0u);
  EXPECT_GT(pref.server_utilization, base.server_utilization);
}

TEST(ProxySim, HitRatioEstimatorApproximatesNoPrefetchTruth) {
  // ĥ' measured *while prefetching* (tagged protocol) should approximate
  // the hit ratio of the same system with prefetching disabled. §4's
  // derivation assumes n̄(C) "large enough to accommodate an arbitrary
  // number of prefetched items"; use a cache with light eviction pressure
  // (the table_hprime_estimator bench quantifies the bias when that
  // assumption is violated).
  auto cfg = small_config();
  cfg.cache_capacity = 80;
  cfg.duration = 1200.0;
  NoPrefetchPolicy none;
  const auto base = run_proxy_sim(cfg, none);
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto pref = run_proxy_sim(cfg, threshold);
  EXPECT_NEAR(pref.hprime_estimate, base.hit_ratio, 0.05);
}

TEST(ProxySim, ThresholdPolicyBeatsNoneOnPredictableWorkload) {
  // Low load, highly predictable sessions: prefetching should cut access
  // time relative to the cache-only baseline.
  auto cfg = small_config();
  cfg.bandwidth = 60.0;  // ρ' comfortably below 1
  cfg.graph.link_skew = 2.0;  // concentrated link probabilities
  cfg.duration = 1200.0;
  NoPrefetchPolicy none;
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto base = run_proxy_sim(cfg, none);
  const auto pref = run_proxy_sim(cfg, threshold);
  EXPECT_LT(pref.mean_access_time, base.mean_access_time);
}

TEST(ProxySim, IndiscriminatePrefetchingUnderHighLoadBackfires) {
  // The paper's warning: near saturation, prefetching low-probability items
  // degrades access time. Fixed threshold 0.01 prefetches everything the
  // predictor surfaces; bandwidth is scarce.
  auto cfg = small_config();
  cfg.bandwidth = 14.0;
  cfg.num_users = 6;
  cfg.duration = 900.0;
  NoPrefetchPolicy none;
  FixedThresholdPolicy spray(0.01);
  const auto base = run_proxy_sim(cfg, none);
  const auto pref = run_proxy_sim(cfg, spray);
  EXPECT_GT(pref.mean_access_time, base.mean_access_time);
}

TEST(ProxySim, ThresholdPolicySurvivesHighLoad) {
  // Same overloaded setting: the load-aware threshold rule must not
  // degrade the baseline by more than noise (it prefetches only winners).
  auto cfg = small_config();
  cfg.bandwidth = 14.0;
  cfg.num_users = 6;
  cfg.duration = 900.0;
  NoPrefetchPolicy none;
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto base = run_proxy_sim(cfg, none);
  const auto pref = run_proxy_sim(cfg, threshold);
  EXPECT_LT(pref.mean_access_time, base.mean_access_time * 1.10);
}

TEST(ProxySim, WastedPrefetchesTrackedUnderSpray) {
  auto cfg = small_config();
  cfg.cache_capacity = 8;  // small cache: pollution gets evicted
  FixedThresholdPolicy spray(0.01);
  const auto result = run_proxy_sim(cfg, spray);
  EXPECT_GT(result.prefetch_jobs, 0u);
  EXPECT_GT(result.wasted_prefetch_evictions, 0u);
  EXPECT_GT(result.prefetch_useful_fraction, 0.0);
  EXPECT_LT(result.prefetch_useful_fraction, 1.0);
}

TEST(ProxySim, LearnedPredictorApproachesOracleHitRatio) {
  auto cfg = small_config();
  cfg.duration = 1500.0;
  cfg.predictor_kind = ProxySimConfig::PredictorKind::kOracle;
  ThresholdPolicy p1(core::InteractionModel::kModelA);
  const auto oracle = run_proxy_sim(cfg, p1);
  cfg.predictor_kind = ProxySimConfig::PredictorKind::kMarkov;
  ThresholdPolicy p2(core::InteractionModel::kModelA);
  const auto markov = run_proxy_sim(cfg, p2);
  // A converged first-order Markov model on a first-order workload should
  // get within a few points of the oracle.
  EXPECT_NEAR(markov.hit_ratio, oracle.hit_ratio, 0.06);
}

TEST(ProxySim, AllCacheKindsRun) {
  for (auto kind :
       {ProxySimConfig::CacheKind::kLru, ProxySimConfig::CacheKind::kLfu,
        ProxySimConfig::CacheKind::kFifo, ProxySimConfig::CacheKind::kClock,
        ProxySimConfig::CacheKind::kRandom}) {
    auto cfg = small_config();
    cfg.cache_kind = kind;
    cfg.duration = 150.0;
    cfg.warmup = 30.0;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto result = run_proxy_sim(cfg, policy);
    EXPECT_GT(result.requests, 100u);
  }
}

TEST(ProxySim, AllPredictorsRun) {
  for (auto kind : {ProxySimConfig::PredictorKind::kMarkov,
                    ProxySimConfig::PredictorKind::kPpm,
                    ProxySimConfig::PredictorKind::kDependencyGraph,
                    ProxySimConfig::PredictorKind::kFrequency,
                    ProxySimConfig::PredictorKind::kOracle}) {
    auto cfg = small_config();
    cfg.predictor_kind = kind;
    cfg.duration = 150.0;
    cfg.warmup = 30.0;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto result = run_proxy_sim(cfg, policy);
    EXPECT_GT(result.requests, 100u);
  }
}

TEST(ProxySim, ModelBEstimatorRuns) {
  auto cfg = small_config();
  cfg.estimator_model = core::InteractionModel::kModelB;
  cfg.duration = 300.0;
  ThresholdPolicy policy(core::InteractionModel::kModelB);
  const auto result = run_proxy_sim(cfg, policy);
  EXPECT_GE(result.hprime_estimate, 0.0);
  EXPECT_LE(result.hprime_estimate, 1.0);
}

}  // namespace
}  // namespace specpf
