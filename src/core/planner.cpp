#include "core/planner.hpp"

#include <algorithm>

#include "core/excess_cost.hpp"
#include "util/contract.hpp"

namespace specpf::core {

PrefetchPlanner::PrefetchPlanner(SystemParams params, InteractionModel model)
    : params_(params), model_(model) {
  params_.validate();
}

double PrefetchPlanner::threshold() const {
  return core::threshold(params_, model_);
}

void PrefetchPlanner::set_params(SystemParams params) {
  params.validate();
  params_ = params;
}

PrefetchPlan PrefetchPlanner::plan(
    const std::vector<Candidate>& candidates) const {
  const double pth = threshold();
  std::vector<Candidate> selected;
  for (const Candidate& c : candidates) {
    SPECPF_EXPECTS(c.probability >= 0.0 && c.probability <= 1.0);
    if (c.probability > pth) selected.push_back(c);
  }
  return evaluate(std::move(selected));
}

PrefetchPlan PrefetchPlanner::plan_with_budget(
    const std::vector<Candidate>& candidates, std::size_t max_items) const {
  const double pth = threshold();
  std::vector<Candidate> selected;
  for (const Candidate& c : candidates) {
    SPECPF_EXPECTS(c.probability >= 0.0 && c.probability <= 1.0);
    if (c.probability > pth) selected.push_back(c);
  }
  if (selected.size() > max_items) {
    std::partial_sort(selected.begin(), selected.begin() + max_items,
                      selected.end(), [](const Candidate& a, const Candidate& b) {
                        return a.probability > b.probability;
                      });
    selected.resize(max_items);
  }
  return evaluate(std::move(selected));
}

PrefetchPlan PrefetchPlanner::evaluate(std::vector<Candidate> selected) const {
  PrefetchPlan plan;
  plan.threshold = threshold();
  plan.selected = std::move(selected);
  for (const Candidate& c : plan.selected) plan.probability_mass += c.probability;

  const double nf = static_cast<double>(plan.selected.size());
  const double sum_p = plan.probability_mass;
  const double q = victim_value(params_, model_);
  const double b = params_.bandwidth;
  const double lambda = params_.request_rate;
  const double s = params_.mean_item_size;

  // Heterogeneous-p generalisation: h = h' + Σp − n̄(F)·q. A predictor may
  // assign more probability mass than the estimated fault ratio admits
  // (eq. 6 consistency); clamp so the prediction stays a probability.
  plan.predicted_hit_ratio =
      std::min(1.0, params_.hit_ratio + sum_p - nf * q);
  plan.predicted_utilization =
      (1.0 - plan.predicted_hit_ratio + nf) * lambda * s / b;
  const double denom = b - (1.0 - plan.predicted_hit_ratio + nf) * lambda * s;
  plan.feasible = denom > 0.0;
  // An already-overloaded link (ρ' ≥ 1) has no no-prefetch operating point
  // to compare against (analyze_no_prefetch rejects it), and its threshold
  // ρ' + q ≥ 1 selects nothing: the plan is saturated, with no access time,
  // gain or excess cost to predict.
  if (!params_.stable_without_prefetch()) {
    plan.feasible = false;
    return plan;
  }
  const NoPrefetchResult base = analyze_no_prefetch(params_);
  if (plan.feasible) {
    plan.predicted_access_time =
        (1.0 - plan.predicted_hit_ratio) * s / denom;
    plan.predicted_gain = base.access_time - plan.predicted_access_time;
    plan.predicted_excess_cost =
        lambda > 0.0 ? excess_cost(plan.predicted_utilization,
                                   base.utilization, lambda)
                     : 0.0;
  } else {
    plan.predicted_access_time = 0.0;
    plan.predicted_gain = -base.access_time;  // saturated system: no bound
    plan.predicted_excess_cost = 0.0;
  }
  return plan;
}

}  // namespace specpf::core
