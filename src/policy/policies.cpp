#include "policy/policies.hpp"

#include <algorithm>
#include <sstream>

#include "core/inverse.hpp"
#include "util/contract.hpp"
#include "util/parse.hpp"

namespace specpf {

std::vector<core::Candidate> ThresholdPolicy::select(
    const std::vector<core::Candidate>& predictions,
    const PolicyContext& ctx) {
  // PrefetchPlanner::plan's selection without the plan's predictions,
  // which the caller never reads.
  const double pth = threshold(ctx);
  std::vector<core::Candidate> out;
  for (const core::Candidate& c : predictions) {
    SPECPF_EXPECTS(c.probability >= 0.0 && c.probability <= 1.0);
    if (c.probability > pth) out.push_back(c);
  }
  return out;
}

double ThresholdPolicy::threshold(const PolicyContext& ctx) const {
  return core::threshold(ctx.params, model_);
}

FixedThresholdPolicy::FixedThresholdPolicy(double theta) : theta_(theta) {
  SPECPF_EXPECTS(theta >= 0.0 && theta <= 1.0);
}

std::vector<core::Candidate> FixedThresholdPolicy::select(
    const std::vector<core::Candidate>& predictions, const PolicyContext&) {
  std::vector<core::Candidate> out;
  for (const auto& c : predictions) {
    if (c.probability > theta_) out.push_back(c);
  }
  return out;
}

std::string FixedThresholdPolicy::name() const {
  std::ostringstream os;
  os << "fixed-" << theta_;
  return os.str();
}

TopKPolicy::TopKPolicy(std::size_t k) : k_(k) { SPECPF_EXPECTS(k >= 1); }

std::vector<core::Candidate> TopKPolicy::select(
    const std::vector<core::Candidate>& predictions, const PolicyContext&) {
  std::vector<core::Candidate> out = predictions;
  std::sort(out.begin(), out.end(),
            [](const core::Candidate& a, const core::Candidate& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.item < b.item;
            });
  if (out.size() > k_) out.resize(k_);
  return out;
}

std::string TopKPolicy::name() const {
  return "top-" + std::to_string(k_);
}

QosThresholdPolicy::QosThresholdPolicy(core::InteractionModel model,
                                       double max_utilization)
    : model_(model), max_utilization_(max_utilization) {
  SPECPF_EXPECTS(max_utilization > 0.0 && max_utilization < 1.0);
}

std::vector<core::Candidate> QosThresholdPolicy::select(
    const std::vector<core::Candidate>& predictions, const PolicyContext& ctx) {
  core::PrefetchPlanner planner(ctx.params, model_);
  const auto unconstrained = planner.plan(predictions);
  if (unconstrained.selected.empty()) return {};

  // Budget: largest n̄(F) keeping the predicted utilisation under the cap,
  // evaluated at the selected batch's mean probability (the closed forms'
  // uniform-p abstraction of the batch).
  const double mean_p = unconstrained.probability_mass /
                        static_cast<double>(unconstrained.selected.size());
  double budget_items = 0.0;
  if (mean_p > core::victim_value(ctx.params, model_) &&
      ctx.params.stable_without_prefetch()) {
    budget_items = core::max_prefetch_rate_for_utilization(
        ctx.params, mean_p, model_, max_utilization_);
  }
  const auto budget = static_cast<std::size_t>(budget_items);
  if (budget >= unconstrained.selected.size()) return unconstrained.selected;
  return planner.plan_with_budget(predictions, budget).selected;
}

std::string QosThresholdPolicy::name() const {
  std::ostringstream os;
  os << "qos-" << (model_ == core::InteractionModel::kModelA ? "A" : "B")
     << "@rho" << max_utilization_;
  return os.str();
}

AdaptiveCostPolicy::AdaptiveCostPolicy(double network_weight)
    : network_weight_(network_weight) {
  SPECPF_EXPECTS(network_weight > 0.0);
}

std::vector<core::Candidate> AdaptiveCostPolicy::select(
    const std::vector<core::Candidate>& predictions, const PolicyContext& ctx) {
  const double rho_prime = ctx.params.utilization_no_prefetch();
  const double threshold = std::min(1.0, network_weight_ * rho_prime);
  std::vector<core::Candidate> out;
  for (const auto& c : predictions) {
    if (c.probability > threshold) out.push_back(c);
  }
  return out;
}

std::string AdaptiveCostPolicy::name() const {
  std::ostringstream os;
  os << "adaptive-w" << network_weight_;
  return os.str();
}

std::unique_ptr<PrefetchPolicy> make_policy_by_name(const std::string& name) {
  if (name == "none") return std::make_unique<NoPrefetchPolicy>();
  if (name == "threshold-a") {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  }
  if (name == "threshold-b") {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelB);
  }
  // Each suffix must parse whole and lie in its constructor's domain;
  // anything else is an unknown name, never a truncated or aborted one.
  double v = 0.0;
  if (parse_name_suffix(name, "fixed-", &v)) {
    if (v < 0.0 || v > 1.0) return nullptr;
    return std::make_unique<FixedThresholdPolicy>(v);
  }
  std::size_t k = 0;
  if (parse_name_suffix(name, "topk-", &k)) {
    if (k < 1) return nullptr;
    return std::make_unique<TopKPolicy>(k);
  }
  if (parse_name_suffix(name, "adaptive-", &v)) {
    if (v <= 0.0) return nullptr;
    return std::make_unique<AdaptiveCostPolicy>(v);
  }
  if (parse_name_suffix(name, "qos-", &v)) {
    if (v <= 0.0 || v >= 1.0) return nullptr;
    return std::make_unique<QosThresholdPolicy>(
        core::InteractionModel::kModelA, v);
  }
  return nullptr;
}

}  // namespace specpf
