// Core analytical model: transcription cross-checks (explicit Model A/B
// formulas vs the generalised victim-value implementation), the paper's
// worked parameter points, and the structural properties the paper proves.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/interaction.hpp"
#include "core/model_a.hpp"
#include "core/model_b.hpp"
#include "core/no_prefetch.hpp"
#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf::core {
namespace {

SystemParams paper_params(double hit_ratio) {
  // The evaluation setting of Figs. 2–3: s̄=1, λ=30, b=50.
  SystemParams p;
  p.bandwidth = 50.0;
  p.request_rate = 30.0;
  p.mean_item_size = 1.0;
  p.hit_ratio = hit_ratio;
  p.cache_items = 100.0;
  return p;
}

// ---------------------------------------------------------------------------
// No-prefetch baseline (§2.3)
// ---------------------------------------------------------------------------

TEST(NoPrefetch, PaperEquationValues) {
  const auto r = analyze_no_prefetch(paper_params(0.0));
  EXPECT_DOUBLE_EQ(r.utilization, 0.6);  // ρ' = 30/50
  // Eq. (4): r̄' = 1/(50·0.4) = 0.05; eq. (5): t̄' = f'·r̄' = 0.05.
  EXPECT_DOUBLE_EQ(r.retrieval_time, 0.05);
  EXPECT_DOUBLE_EQ(r.access_time, 0.05);
}

TEST(NoPrefetch, HitRatioScalesUtilization) {
  const auto r = analyze_no_prefetch(paper_params(0.3));
  EXPECT_NEAR(r.utilization, 0.42, 1e-12);  // 0.7·30/50
  // t̄' = f's̄/(b − f'λs̄) = 0.7/(50−21) = 0.0241379...
  EXPECT_NEAR(r.access_time, 0.7 / 29.0, 1e-12);
}

TEST(NoPrefetch, ZeroRequestsMeansZeroUtilization) {
  SystemParams p = paper_params(0.0);
  p.request_rate = 0.0;
  const auto r = analyze_no_prefetch(p);
  EXPECT_DOUBLE_EQ(r.utilization, 0.0);
  EXPECT_DOUBLE_EQ(r.access_time, p.mean_item_size / p.bandwidth);
}

TEST(NoPrefetch, RejectsOverloadedSystem) {
  SystemParams p = paper_params(0.0);
  p.request_rate = 60.0;  // ρ' = 1.2
  EXPECT_THROW(analyze_no_prefetch(p), ContractViolation);
}

TEST(SystemParams, MaxCandidatesEquationSix) {
  EXPECT_DOUBLE_EQ(max_candidates(paper_params(0.0), 0.5), 2.0);
  EXPECT_DOUBLE_EQ(max_candidates(paper_params(0.3), 0.7), 1.0);
  EXPECT_THROW(max_candidates(paper_params(0.0), 0.0), ContractViolation);
}

TEST(SystemParams, ValidationRejectsOutOfDomain) {
  SystemParams p = paper_params(0.0);
  p.bandwidth = 0.0;
  EXPECT_THROW(p.validate(), ContractViolation);
  p = paper_params(0.0);
  p.hit_ratio = 1.5;
  EXPECT_THROW(p.validate(), ContractViolation);
  p = paper_params(0.0);
  p.mean_item_size = -1.0;
  EXPECT_THROW(p.validate(), ContractViolation);
}

// check() names the first field out of domain, non-finite values included,
// in the "<field>: <rule>, got <value>" form the frontends print.
TEST(SystemParams, CheckNamesTheFirstBadField) {
  EXPECT_EQ(paper_params(0.3).check(), "");
  const auto first_field = [](SystemParams p) {
    const std::string error = p.check();
    return error.substr(0, error.find(':'));
  };
  SystemParams p = paper_params(0.3);
  p.bandwidth = std::numeric_limits<double>::infinity();
  EXPECT_EQ(first_field(p), "bandwidth");
  p = paper_params(0.3);
  p.request_rate = std::nan("");
  EXPECT_EQ(p.check(), "request_rate: must be non-negative and finite, got nan");
  p = paper_params(0.3);
  p.mean_item_size = 0.0;
  EXPECT_EQ(first_field(p), "mean_item_size");
  p = paper_params(0.3);
  p.hit_ratio = 2.0;
  EXPECT_EQ(p.check(), "hit_ratio: must be in [0, 1], got 2");
  p = paper_params(0.3);
  p.cache_items = -1.0;
  EXPECT_EQ(first_field(p), "cache_items");
  EXPECT_THROW(p.validate(), ContractViolation);
}

TEST(SystemParams, CheckStableNamesTheSaturatedDemandLoad) {
  SystemParams p = paper_params(0.3);  // rho' = 0.7 * 30 / 50 = 0.42
  EXPECT_EQ(p.check_stable(), "");
  p.request_rate = 1000.0;  // rho' = 14: every field alone is in its domain
  EXPECT_EQ(p.check(), "");
  const std::string error = p.check_stable();
  EXPECT_EQ(error.substr(0, error.find(':')), "utilization_no_prefetch");
  EXPECT_NE(error.find("got 14"), std::string::npos) << error;
  EXPECT_THROW(analyze_no_prefetch(p), ContractViolation);
}

// Eq. (6): at most f'/p items can have access probability p at once, so
// n̄(F) past it is refused by name; at the bound h reaches exactly 1 under
// Model A.
TEST(OperatingPoint, CheckCandidatesCapsThePrefetchRateAtEq6) {
  const SystemParams params = paper_params(0.3);  // f' = 0.7
  EXPECT_EQ((OperatingPoint{1.0, 0.0}).check_candidates(params), "");
  EXPECT_EQ((OperatingPoint{0.7, 1.0}).check_candidates(params), "");
  EXPECT_EQ((OperatingPoint{1.0, 0.7}).check_candidates(params), "");
  const std::string error = (OperatingPoint{1.0, 1.5}).check_candidates(params);
  EXPECT_EQ(error.substr(0, error.find(':')), "prefetch_rate");
  EXPECT_NE(error.find("got 1.5"), std::string::npos) << error;
  EXPECT_NE((OperatingPoint{0.5, 1.5}).check_candidates(params), "");
  EXPECT_DOUBLE_EQ(
      analyze(params, {1.0, 0.7}, InteractionModel::kModelA).hit_ratio, 1.0);
}

// ---------------------------------------------------------------------------
// Model A explicit formulas vs generalised implementation
// ---------------------------------------------------------------------------

struct Point {
  double hit_ratio, p, nf;
};

class ModelCrossCheck : public ::testing::TestWithParam<Point> {};

TEST_P(ModelCrossCheck, ModelAMatchesGeneralisedQZero) {
  const auto [h, p, nf] = GetParam();
  const SystemParams params = paper_params(h);
  const OperatingPoint op{p, nf};
  const auto general = analyze(params, op, InteractionModel::kModelA);
  EXPECT_NEAR(general.hit_ratio, model_a::hit_ratio(params, p, nf), 1e-12);
  EXPECT_NEAR(general.utilization, model_a::utilization(params, p, nf), 1e-12);
  EXPECT_NEAR(general.retrieval_time, model_a::retrieval_time(params, p, nf),
              1e-12);
  EXPECT_NEAR(general.access_time, model_a::access_time(params, p, nf), 1e-12);
  EXPECT_NEAR(general.gain, model_a::gain(params, p, nf), 1e-12);
  EXPECT_NEAR(general.threshold, model_a::threshold(params), 1e-12);
}

TEST_P(ModelCrossCheck, ModelBMatchesGeneralisedQHOverNc) {
  const auto [h, p, nf] = GetParam();
  const SystemParams params = paper_params(h);
  const OperatingPoint op{p, nf};
  const auto general = analyze(params, op, InteractionModel::kModelB);
  EXPECT_NEAR(general.hit_ratio, model_b::hit_ratio(params, p, nf), 1e-12);
  EXPECT_NEAR(general.utilization, model_b::utilization(params, p, nf), 1e-12);
  EXPECT_NEAR(general.retrieval_time, model_b::retrieval_time(params, p, nf),
              1e-12);
  EXPECT_NEAR(general.access_time, model_b::access_time(params, p, nf), 1e-12);
  EXPECT_NEAR(general.gain, model_b::gain(params, p, nf), 1e-12);
  EXPECT_NEAR(general.threshold, model_b::threshold(params), 1e-12);
}

TEST_P(ModelCrossCheck, GainIsAccessTimeDifferenceBothModels) {
  // G (factored form, eqs. 11/19) must equal t̄' − t̄ computed directly.
  const auto [h, p, nf] = GetParam();
  const SystemParams params = paper_params(h);
  const OperatingPoint op{p, nf};
  for (auto model : {InteractionModel::kModelA, InteractionModel::kModelB}) {
    const auto a = analyze(params, op, model);
    if (!a.conditions.total_within_capacity) continue;
    EXPECT_NEAR(a.gain, a.baseline.access_time - a.access_time, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelCrossCheck,
    ::testing::Values(Point{0.0, 0.1, 0.2}, Point{0.0, 0.5, 0.5},
                      Point{0.0, 0.7, 1.0}, Point{0.0, 0.9, 1.1},
                      Point{0.3, 0.2, 0.4}, Point{0.3, 0.5, 1.0},
                      Point{0.3, 0.8, 0.5}, Point{0.3, 0.9, 0.7},
                      Point{0.6, 0.95, 0.3}, Point{0.5, 0.75, 0.6}));

// ---------------------------------------------------------------------------
// Thresholds (eqs. 13 and 21) and the headline sign property
// ---------------------------------------------------------------------------

TEST(Threshold, ModelAEqualsRhoPrime) {
  // Paper's example: s̄=1, λ=30, b=50 ⇒ p_th = 0.6 (h'=0), 0.42 (h'=0.3).
  EXPECT_DOUBLE_EQ(threshold(paper_params(0.0), InteractionModel::kModelA),
                   0.6);
  EXPECT_NEAR(threshold(paper_params(0.3), InteractionModel::kModelA), 0.42,
              1e-12);
}

TEST(Threshold, ModelBAddsVictimValue) {
  const SystemParams p = paper_params(0.3);
  EXPECT_NEAR(threshold(p, InteractionModel::kModelB), 0.42 + 0.3 / 100.0,
              1e-12);
}

TEST(Threshold, GapIsAtMostInverseCacheSize) {
  // §6: p_th(B) − p_th(A) = h'/n̄(C) ≤ 1/n̄(C) since h' ≤ 1.
  for (double h : {0.0, 0.2, 0.5, 0.9}) {
    for (double nc : {5.0, 50.0, 500.0}) {
      SystemParams p = paper_params(h);
      p.cache_items = nc;
      const double gap = threshold(p, InteractionModel::kModelB) -
                         threshold(p, InteractionModel::kModelA);
      EXPECT_NEAR(gap, h / nc, 1e-12);
      EXPECT_LE(gap, 1.0 / nc + 1e-12);
    }
  }
}

class SignProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SignProperty, GainSignDeterminedExclusivelyByThreshold) {
  // The paper's central claim: for any n̄(F) in (0, max(np)],
  //  * if p > p_th, condition 3 holds automatically (the eq. 14/22
  //    redundancy argument) and G > 0;
  //  * if p < p_th and the system is still stable, G < 0 — prefetching at
  //    sub-threshold probabilities always hurts (when it saturates the
  //    system instead, the closed forms no longer apply).
  const auto [h, p, nf_frac] = GetParam();
  const SystemParams params = paper_params(h);
  for (auto model : {InteractionModel::kModelA, InteractionModel::kModelB}) {
    const double q = victim_value(params, model);
    if (p <= q) continue;  // below victim value: not a meaningful candidate
    const double nf = nf_frac * params.fault_ratio() / p;  // ≤ max(np)
    if (nf <= 0.0) continue;
    const auto a = analyze(params, {p, nf}, model);
    const double pth = a.threshold;
    if (p > pth + 1e-9) {
      ASSERT_TRUE(a.conditions.total_within_capacity)
          << "condition 3 must be redundant above threshold, h=" << h
          << " p=" << p;
      EXPECT_GT(a.gain, 0.0);
    } else if (p < pth - 1e-9) {
      if (a.conditions.total_within_capacity) EXPECT_LT(a.gain, 0.0);
    } else if (a.conditions.total_within_capacity) {
      EXPECT_NEAR(a.gain, 0.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SignProperty,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.5),
                       ::testing::Values(0.1, 0.3, 0.42, 0.5, 0.6, 0.7, 0.9),
                       ::testing::Values(0.25, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// Monotonicity of G in n̄(F) (paper §3.1 argument below Fig. 2)
// ---------------------------------------------------------------------------

class Monotonicity : public ::testing::TestWithParam<double> {};

TEST_P(Monotonicity, GainMonotoneInPrefetchRateWhileStable) {
  // Paper §3.1: for fixed p ≠ p_th, |G| grows monotonically in n̄(F)
  // (numerator grows in magnitude, denominator shrinks but stays positive).
  // The "stays positive" premise is automatic for p > p_th (condition-3
  // redundancy); for p < p_th it bounds the sweep at the capacity limit.
  const double p = GetParam();
  for (double h : {0.0, 0.3}) {
    const SystemParams params = paper_params(h);
    const double pth = threshold(params, InteractionModel::kModelA);
    const double max_np = params.fault_ratio() / p;
    const double cap =
        prefetch_rate_capacity_limit(params, p, InteractionModel::kModelA);
    const double nf_end = std::min(max_np, cap * (1.0 - 1e-9));
    double prev = 0.0;
    bool first = true;
    for (double nf = nf_end / 32.0; nf <= nf_end + 1e-12;
         nf += nf_end / 32.0) {
      const double g = model_a::gain(params, p, nf);
      if (!first) {
        if (p > pth + 1e-9) {
          EXPECT_GT(g, prev) << "p=" << p << " nf=" << nf;
        } else if (p < pth - 1e-9) {
          EXPECT_LT(g, prev) << "p=" << p << " nf=" << nf;
        }
      }
      prev = g;
      first = false;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProbabilityGrid, Monotonicity,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                           0.8, 0.9));

// ---------------------------------------------------------------------------
// Condition redundancy (eqs. 12–14, 20–22)
// ---------------------------------------------------------------------------

TEST(Conditions, Condition3RedundantWithinMaxNpModelA) {
  // Eq. (14): at the least useful bandwidth the n̄(F) bound equals f'/p =
  // max(np), so staying within max(np) keeps condition 3 satisfied.
  for (double h : {0.0, 0.3, 0.6}) {
    SystemParams params = paper_params(h);
    for (double p : {0.65, 0.7, 0.8, 0.95}) {
      const double limit =
          prefetch_rate_limit_at_min_bandwidth(params, p,
                                               InteractionModel::kModelA);
      EXPECT_NEAR(limit, params.fault_ratio() / p, 1e-12);
      EXPECT_GE(limit, max_candidates(params, p) - 1e-12);
    }
  }
}

TEST(Conditions, Condition3BoundExceedsMaxNpModelB) {
  // Eq. (22): f'/(p − h'/n̄(C)) > f'/p.
  SystemParams params = paper_params(0.3);
  for (double p : {0.5, 0.7, 0.9}) {
    const double limit = prefetch_rate_limit_at_min_bandwidth(
        params, p, InteractionModel::kModelB);
    EXPECT_GT(limit, max_candidates(params, p));
  }
}

TEST(Conditions, CapacityLimitAtActualBandwidth) {
  const SystemParams params = paper_params(0.0);
  // b − f'λs̄ = 20; coefficient (1−p)λs̄ = 15 at p=0.5 ⇒ n̄(F) < 4/3.
  const double lim = prefetch_rate_capacity_limit(params, 0.5,
                                                  InteractionModel::kModelA);
  EXPECT_NEAR(lim, 20.0 / 15.0, 1e-12);
  const auto at_limit = analyze(params, {0.5, lim - 1e-9},
                                InteractionModel::kModelA);
  EXPECT_TRUE(at_limit.conditions.total_within_capacity);
  const auto beyond = analyze(params, {0.5, lim + 1e-6},
                              InteractionModel::kModelA);
  EXPECT_FALSE(beyond.conditions.total_within_capacity);
}

TEST(Conditions, PerfectProbabilityNeverSaturates) {
  // p = 1 under Model A: every prefetch replaces a demand fetch one-for-one,
  // so no n̄(F) can overload the system.
  const SystemParams params = paper_params(0.0);
  EXPECT_TRUE(std::isinf(prefetch_rate_capacity_limit(
      params, 1.0, InteractionModel::kModelA)));
}

TEST(Conditions, Condition2FollowsFromBaselineStability) {
  const auto a = analyze(paper_params(0.3), {0.5, 0.5},
                         InteractionModel::kModelA);
  EXPECT_TRUE(a.conditions.demand_within_capacity);
}

// ---------------------------------------------------------------------------
// §6: Model A approximates Model B for large caches
// ---------------------------------------------------------------------------

TEST(ModelComparison, ObservablesConvergeAsCacheGrows) {
  const OperatingPoint op{0.7, 1.0};
  double prev_gap = 1e9;
  for (double nc : {10.0, 100.0, 1000.0, 10000.0}) {
    SystemParams params = paper_params(0.3);
    params.cache_items = nc;
    const auto a = analyze(params, op, InteractionModel::kModelA);
    const auto b = analyze(params, op, InteractionModel::kModelB);
    const double gap = std::abs(a.gain - b.gain);
    EXPECT_LT(gap, prev_gap);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 1e-4);
}

TEST(ModelComparison, ModelAbLiesBetweenAandB) {
  // §6's "more realistic" model AB: victim value q ∈ (0, h'/n̄(C)) must give
  // results bracketed by the two extremes.
  const SystemParams params = paper_params(0.4);
  const OperatingPoint op{0.8, 0.5};
  const double qb = victim_value(params, InteractionModel::kModelB);
  const auto a = analyze(params, op, InteractionModel::kModelA);
  const auto b = analyze(params, op, InteractionModel::kModelB);
  const auto ab = analyze_with_victim_value(params, op, qb / 2.0);
  EXPECT_GT(ab.gain, b.gain);
  EXPECT_LT(ab.gain, a.gain);
  EXPECT_GT(ab.threshold, a.threshold);
  EXPECT_LT(ab.threshold, b.threshold);
  EXPECT_LT(ab.hit_ratio, a.hit_ratio);
  EXPECT_GT(ab.hit_ratio, b.hit_ratio);
}

TEST(ModelComparison, HitRatioAlwaysImprovesUnderModelA) {
  // Model A's defining property: h ≥ h' for any prefetching.
  for (double h : {0.0, 0.3, 0.7}) {
    const SystemParams params = paper_params(h);
    for (double p : {0.1, 0.5, 0.9}) {
      for (double nf : {0.1, 0.5, 1.0}) {
        if (nf * p > params.fault_ratio()) continue;
        EXPECT_GE(model_a::hit_ratio(params, p, nf), params.hit_ratio);
      }
    }
  }
}

TEST(ModelComparison, ModelBHitRatioCanDegrade) {
  // With p below h'/n̄(C), prefetching under Model B *lowers* the hit ratio.
  SystemParams params = paper_params(0.8);
  params.cache_items = 10.0;  // victim value 0.08
  EXPECT_LT(model_b::hit_ratio(params, 0.05, 1.0), params.hit_ratio);
}

TEST(ZeroPrefetchRate, ReducesToBaselineExactly) {
  for (double h : {0.0, 0.3}) {
    const SystemParams params = paper_params(h);
    for (auto model : {InteractionModel::kModelA, InteractionModel::kModelB}) {
      const auto a = analyze(params, {0.5, 0.0}, model);
      EXPECT_DOUBLE_EQ(a.gain, 0.0);
      EXPECT_NEAR(a.hit_ratio, params.hit_ratio, 1e-12);
      EXPECT_NEAR(a.access_time, a.baseline.access_time, 1e-12);
      EXPECT_NEAR(a.utilization, a.baseline.utilization, 1e-12);
    }
  }
}

}  // namespace
}  // namespace specpf::core
