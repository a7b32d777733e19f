// PrefetchPlanner (the paper's decision rule as a library API) and the
// policy implementations built on it.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/model_a.hpp"
#include "core/planner.hpp"
#include "policy/policies.hpp"
#include "util/contract.hpp"

namespace specpf {
namespace {

using core::Candidate;
using core::InteractionModel;
using core::OperatingPoint;
using core::PrefetchPlanner;
using core::SystemParams;

SystemParams paper_params(double hit_ratio) {
  SystemParams p;
  p.bandwidth = 50.0;
  p.request_rate = 30.0;
  p.mean_item_size = 1.0;
  p.hit_ratio = hit_ratio;
  p.cache_items = 100.0;
  return p;
}

TEST(Planner, SelectsExactlyItemsAboveThreshold) {
  PrefetchPlanner planner(paper_params(0.0), InteractionModel::kModelA);
  EXPECT_DOUBLE_EQ(planner.threshold(), 0.6);
  const std::vector<Candidate> candidates{
      {1, 0.9}, {2, 0.61}, {3, 0.6}, {4, 0.59}, {5, 0.1}};
  const auto plan = planner.plan(candidates);
  ASSERT_EQ(plan.selected.size(), 2u);
  EXPECT_EQ(plan.selected[0].item, 1u);
  EXPECT_EQ(plan.selected[1].item, 2u);  // strictly-above: 0.6 excluded
  EXPECT_NEAR(plan.probability_mass, 1.51, 1e-12);
}

TEST(Planner, EmptyCandidatesGiveEmptyPlan) {
  PrefetchPlanner planner(paper_params(0.3), InteractionModel::kModelA);
  const auto plan = planner.plan({});
  EXPECT_TRUE(plan.selected.empty());
  EXPECT_NEAR(plan.predicted_gain, 0.0, 1e-12);
  EXPECT_TRUE(plan.feasible);
}

TEST(Planner, UniformCandidatesMatchClosedFormPrediction) {
  // k identical candidates with probability p must reproduce the paper's
  // n̄(F)=k forms exactly. Use a lightly loaded system so two candidates at
  // p=0.35 stay above threshold (ρ' = 0.2) and Σp ≤ f' (eq. 6).
  SystemParams params = paper_params(0.0);
  params.request_rate = 10.0;
  PrefetchPlanner planner(params, InteractionModel::kModelA);
  const double p = 0.35;
  const std::vector<Candidate> candidates{{1, p}, {2, p}};
  const auto plan = planner.plan(candidates);
  ASSERT_EQ(plan.selected.size(), 2u);
  EXPECT_NEAR(plan.predicted_hit_ratio,
              core::model_a::hit_ratio(params, p, 2.0), 1e-12);
  EXPECT_NEAR(plan.predicted_access_time,
              core::model_a::access_time(params, p, 2.0), 1e-12);
  EXPECT_NEAR(plan.predicted_gain, core::model_a::gain(params, p, 2.0),
              1e-12);
}

TEST(Planner, PredictedGainPositiveForSelectedBatch) {
  // Candidate masses consistent with eq. (6): Σp ≤ f' = 0.7.
  PrefetchPlanner planner(paper_params(0.3), InteractionModel::kModelA);
  const auto plan = planner.plan({{1, 0.5}, {2, 0.15}, {3, 0.05}});
  EXPECT_EQ(plan.selected.size(), 1u);  // threshold 0.42
  EXPECT_GT(plan.predicted_gain, 0.0);
  EXPECT_GT(plan.predicted_excess_cost, 0.0);
  EXPECT_TRUE(plan.feasible);
}

TEST(Planner, ModelBUsesHigherThreshold) {
  SystemParams params = paper_params(0.5);
  params.cache_items = 10.0;  // victim value 0.05
  PrefetchPlanner a(params, InteractionModel::kModelA);
  PrefetchPlanner b(params, InteractionModel::kModelB);
  EXPECT_NEAR(b.threshold() - a.threshold(), 0.05, 1e-12);
  const std::vector<Candidate> candidates{{1, a.threshold() + 0.02}};
  EXPECT_EQ(a.plan(candidates).selected.size(), 1u);
  EXPECT_TRUE(b.plan(candidates).selected.empty());
}

TEST(Planner, BudgetKeepsHighestProbabilities) {
  PrefetchPlanner planner(paper_params(0.0), InteractionModel::kModelA);
  const std::vector<Candidate> candidates{
      {1, 0.7}, {2, 0.95}, {3, 0.8}, {4, 0.65}};
  const auto plan = planner.plan_with_budget(candidates, 2);
  ASSERT_EQ(plan.selected.size(), 2u);
  EXPECT_EQ(plan.selected[0].item, 2u);
  EXPECT_EQ(plan.selected[1].item, 3u);
}

TEST(Planner, RejectsOutOfRangeProbability) {
  PrefetchPlanner planner(paper_params(0.0), InteractionModel::kModelA);
  EXPECT_THROW(planner.plan({{1, 1.5}}), ContractViolation);
}

TEST(Planner, OverloadedLinkGivesSaturatedPlan) {
  // ρ' = 60/50 = 1.2: there is no no-prefetch operating point, and the
  // threshold ρ' ≥ 1 selects nothing. The plan is saturated, not a throw.
  SystemParams overloaded = paper_params(0.0);
  overloaded.request_rate = 60.0;
  for (const InteractionModel model :
       {InteractionModel::kModelA, InteractionModel::kModelB}) {
    PrefetchPlanner planner(overloaded, model);
    const auto plan = planner.plan({{1, 1.0}, {2, 0.7}});
    EXPECT_TRUE(plan.selected.empty());
    EXPECT_FALSE(plan.feasible);
    EXPECT_GE(plan.threshold, 1.0);
    EXPECT_FALSE(planner.plan_with_budget({{1, 1.0}}, 4).feasible);
  }
  ThresholdPolicy policy(InteractionModel::kModelA);
  PolicyContext ctx;
  ctx.params = overloaded;
  EXPECT_TRUE(policy.select({{1, 1.0}}, ctx).empty());
}

TEST(Planner, SetParamsUpdatesThreshold) {
  PrefetchPlanner planner(paper_params(0.0), InteractionModel::kModelA);
  SystemParams lighter = paper_params(0.0);
  lighter.request_rate = 10.0;  // ρ' = 0.2
  planner.set_params(lighter);
  EXPECT_DOUBLE_EQ(planner.threshold(), 0.2);
}

// --- Policies ---

PolicyContext make_ctx(double hit_ratio) {
  PolicyContext ctx;
  ctx.params = paper_params(hit_ratio);
  return ctx;
}

TEST(NoPrefetchPolicy, NeverSelects) {
  NoPrefetchPolicy policy;
  EXPECT_TRUE(policy.select({{1, 0.99}}, make_ctx(0.0)).empty());
  EXPECT_EQ(policy.name(), "none");
}

TEST(ThresholdPolicy, AppliesDynamicThreshold) {
  ThresholdPolicy policy(InteractionModel::kModelA);
  const auto ctx = make_ctx(0.3);  // p_th = 0.42
  const auto out = policy.select({{1, 0.5}, {2, 0.4}}, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].item, 1u);
  EXPECT_NEAR(policy.threshold(ctx), 0.42, 1e-12);
}

TEST(ThresholdPolicy, ThresholdTracksLoad) {
  ThresholdPolicy policy(InteractionModel::kModelA);
  PolicyContext light = make_ctx(0.0);
  light.params.request_rate = 5.0;  // p_th = 0.1
  PolicyContext heavy = make_ctx(0.0);
  heavy.params.request_rate = 45.0;  // p_th = 0.9
  const std::vector<Candidate> candidates{{1, 0.5}};
  EXPECT_EQ(policy.select(candidates, light).size(), 1u);
  EXPECT_TRUE(policy.select(candidates, heavy).empty());
}

TEST(ThresholdPolicy, SelectsWhatThePlannerSelects) {
  // select() filters by the threshold directly instead of building the
  // planner's full plan; the batch must be the plan's, item for item,
  // under both models, across loads up to an overloaded link, and the
  // same out-of-range rejections must hold.
  std::vector<Candidate> candidates;
  for (std::uint64_t i = 0; i < 40; ++i) {
    candidates.push_back({i, static_cast<double>((i * 37) % 41) / 40.0});
  }
  for (InteractionModel model :
       {InteractionModel::kModelA, InteractionModel::kModelB}) {
    ThresholdPolicy policy(model);
    for (double rate : {0.0, 5.0, 20.0, 34.0, 49.0, 60.0}) {
      for (double hprime : {0.0, 0.3, 0.9}) {
        PolicyContext ctx = make_ctx(hprime);
        ctx.params.request_rate = rate;
        const auto want =
            PrefetchPlanner(ctx.params, model).plan(candidates).selected;
        const auto got = policy.select(candidates, ctx);
        ASSERT_EQ(got.size(), want.size()) << "rate " << rate;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].item, want[i].item);
          EXPECT_EQ(got[i].probability, want[i].probability);
        }
      }
    }
    EXPECT_THROW(policy.select({{1, 1.5}}, make_ctx(0.3)), ContractViolation);
    PolicyContext bad = make_ctx(0.3);
    bad.params.bandwidth = 0.0;
    EXPECT_THROW(policy.select(candidates, bad), ContractViolation);
  }
}

TEST(FixedThresholdPolicy, IgnoresContext) {
  FixedThresholdPolicy policy(0.25);
  PolicyContext heavy = make_ctx(0.0);
  heavy.params.request_rate = 49.0;  // system nearly saturated
  const auto out = policy.select({{1, 0.3}, {2, 0.2}}, heavy);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].item, 1u);
}

TEST(TopKPolicy, AlwaysTakesKMostProbable) {
  TopKPolicy policy(2);
  const auto out =
      policy.select({{1, 0.1}, {2, 0.3}, {3, 0.2}}, make_ctx(0.0));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].item, 2u);
  EXPECT_EQ(out[1].item, 3u);
  EXPECT_EQ(policy.name(), "top-2");
}

TEST(AdaptiveCostPolicy, WeightOneMatchesModelAThreshold) {
  AdaptiveCostPolicy adaptive(1.0);
  ThresholdPolicy reference(InteractionModel::kModelA);
  const auto ctx = make_ctx(0.3);
  const std::vector<Candidate> candidates{
      {1, 0.41}, {2, 0.43}, {3, 0.9}, {4, 0.1}};
  const auto a = adaptive.select(candidates, ctx);
  const auto b = reference.select(candidates, ctx);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].item, b[i].item);
}

TEST(AdaptiveCostPolicy, HigherWeightIsMoreConservative) {
  AdaptiveCostPolicy aggressive(0.5), conservative(2.0);
  const auto ctx = make_ctx(0.3);  // ρ' = 0.42
  const std::vector<Candidate> candidates{{1, 0.5}};
  EXPECT_EQ(aggressive.select(candidates, ctx).size(), 1u);
  EXPECT_TRUE(conservative.select(candidates, ctx).empty());
}

TEST(QosThresholdPolicy, GenerousCapMatchesPlainThreshold) {
  QosThresholdPolicy qos(InteractionModel::kModelA, /*max_utilization=*/0.99);
  ThresholdPolicy plain(InteractionModel::kModelA);
  // Light load (ρ' = 0.2) so several candidates clear the threshold while
  // their probability mass stays eq.-(6)-consistent (Σp ≤ f' = 1).
  PolicyContext ctx = make_ctx(0.0);
  ctx.params.request_rate = 10.0;
  const std::vector<Candidate> candidates{
      {1, 0.35}, {2, 0.30}, {3, 0.25}, {4, 0.05}};
  const auto a = qos.select(candidates, ctx);
  const auto b = plain.select(candidates, ctx);
  ASSERT_EQ(b.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].item, b[i].item);
}

TEST(QosThresholdPolicy, TightCapShrinksTheBatch) {
  // ρ' = 0.42; each p=0.5 prefetch adds (1-p)λs̄/b = 0.3 of utilisation.
  // A cap of 0.80 admits one item; the plain rule would take all five.
  auto ctx = make_ctx(0.3);
  QosThresholdPolicy tight(InteractionModel::kModelA, 0.80);
  ThresholdPolicy plain(InteractionModel::kModelA);
  const std::vector<Candidate> candidates{
      {1, 0.5}, {2, 0.5}, {3, 0.5}, {4, 0.5}, {5, 0.5}};
  const auto unconstrained = plain.select(candidates, ctx);
  const auto constrained = tight.select(candidates, ctx);
  EXPECT_EQ(unconstrained.size(), 5u);
  EXPECT_EQ(constrained.size(), 1u);
}

TEST(QosThresholdPolicy, CapBelowCurrentLoadBlocksAllPrefetching) {
  auto ctx = make_ctx(0.3);  // ρ' = 0.42
  QosThresholdPolicy qos(InteractionModel::kModelA, 0.40);
  EXPECT_TRUE(qos.select({{1, 0.9}}, ctx).empty());
}

TEST(QosThresholdPolicy, NeverSelectsBelowThreshold) {
  QosThresholdPolicy qos(InteractionModel::kModelA, 0.99);
  const auto ctx = make_ctx(0.3);
  const auto out = qos.select({{1, 0.4}, {2, 0.2}}, ctx);  // p_th = 0.42
  EXPECT_TRUE(out.empty());
}

TEST(QosThresholdPolicy, RejectsInvalidCap) {
  EXPECT_THROW(QosThresholdPolicy(InteractionModel::kModelA, 0.0),
               ContractViolation);
  EXPECT_THROW(QosThresholdPolicy(InteractionModel::kModelA, 1.0),
               ContractViolation);
}

TEST(PolicyNames, AreDistinctAndStable) {
  EXPECT_EQ(ThresholdPolicy(InteractionModel::kModelA).name(), "threshold-A");
  EXPECT_EQ(ThresholdPolicy(InteractionModel::kModelB).name(), "threshold-B");
  EXPECT_EQ(FixedThresholdPolicy(0.5).name(), "fixed-0.5");
}

// --- make_policy_by_name: strict suffix parsing -----------------------------

struct PolicySpelling {
  const char* name;
  const char* built;  ///< name() of the policy built, or nullptr if unknown
};

void PrintTo(const PolicySpelling& p, std::ostream* os) { *os << p.name; }

class PolicyByName : public ::testing::TestWithParam<PolicySpelling> {};

TEST_P(PolicyByName, BuildsExactlyWhatWasTypedOrNothing) {
  const PolicySpelling& p = GetParam();
  const auto policy = make_policy_by_name(p.name);
  if (p.built == nullptr) {
    EXPECT_EQ(policy, nullptr) << p.name;
  } else {
    ASSERT_NE(policy, nullptr) << p.name;
    EXPECT_EQ(policy->name(), p.built);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spellings, PolicyByName,
    ::testing::Values(
        PolicySpelling{"none", "none"},
        PolicySpelling{"threshold-a", "threshold-A"},
        PolicySpelling{"fixed-0.05", "fixed-0.05"},
        PolicySpelling{"topk-2", "top-2"},
        PolicySpelling{"adaptive-1.5", "adaptive-w1.5"},
        PolicySpelling{"qos-0.8", "qos-A@rho0.8"},
        // Trailing garbage is a typo, not a value.
        PolicySpelling{"fixed-0.05x", nullptr},
        PolicySpelling{"fixed-", nullptr},
        PolicySpelling{"fixed- 0.5", nullptr},
        // topk takes a whole count >= 1, never a truncated double.
        PolicySpelling{"topk-2.7", nullptr},
        PolicySpelling{"topk--3", nullptr},
        PolicySpelling{"topk-nan", nullptr},
        PolicySpelling{"topk-0", nullptr},
        PolicySpelling{"topk-1e3", nullptr},
        // Non-finite or out-of-domain values are unknown names, not aborts.
        PolicySpelling{"fixed-nan", nullptr},
        PolicySpelling{"fixed-inf", nullptr},
        PolicySpelling{"fixed-1.5", nullptr},
        PolicySpelling{"fixed--0.1", nullptr},
        PolicySpelling{"adaptive-0", nullptr},
        PolicySpelling{"adaptive--2", nullptr},
        PolicySpelling{"adaptive-inf", nullptr},
        PolicySpelling{"qos-1", nullptr},
        PolicySpelling{"qos-0", nullptr},
        PolicySpelling{"qos-nan", nullptr},
        PolicySpelling{"bogus", nullptr}));

}  // namespace
}  // namespace specpf
