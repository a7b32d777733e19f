#include "core/interaction.hpp"

#include <cmath>
#include <limits>

#include "util/contract.hpp"

namespace specpf::core {

std::string OperatingPoint::check() const {
  if (!(access_probability > 0.0 && access_probability <= 1.0)) {
    return config_error("access_probability", "must be in (0, 1]",
                        access_probability);
  }
  if (!(prefetch_rate >= 0.0 && std::isfinite(prefetch_rate))) {
    return config_error("prefetch_rate", "must be non-negative and finite",
                        prefetch_rate);
  }
  return {};
}

std::string OperatingPoint::check_candidates(
    const SystemParams& params) const {
  if (prefetch_rate <= max_candidates(params, access_probability)) return {};
  return config_error("prefetch_rate",
                      "must be at most f'/p = (1-h')/p, the most items that "
                      "can have access probability p (eq. (6))",
                      prefetch_rate);
}

std::string PrefetchAnalysis::check_stable() const {
  if (utilization < 1.0) return {};
  return config_error("utilization",
                      "must be below 1 (demand plus prefetch traffic "
                      "(1-h+nF)*lambda*s/b saturates the link)",
                      utilization);
}

double victim_value(const SystemParams& params, InteractionModel model) {
  switch (model) {
    case InteractionModel::kModelA:
      return 0.0;
    case InteractionModel::kModelB:
      return params.hit_ratio / params.cache_items;
  }
  SPECPF_ASSERT(false && "unreachable");
  return 0.0;
}

PrefetchAnalysis analyze_with_victim_value(const SystemParams& params,
                                           const OperatingPoint& op,
                                           double q) {
  params.validate();
  expect_valid(op.check());
  SPECPF_EXPECTS(q >= 0.0 && q <= 1.0);

  PrefetchAnalysis out;
  out.victim_value = q;
  out.baseline = analyze_no_prefetch(params);

  const double b = params.bandwidth;
  const double lambda = params.request_rate;
  const double s = params.mean_item_size;
  const double f = params.fault_ratio();
  const double p = op.access_probability;
  const double nf = op.prefetch_rate;

  // h = h' + n̄(F)(p − q); eq. (7) when q=0, eq. (15) when q=h'/n̄(C).
  out.hit_ratio = params.hit_ratio + nf * (p - q);

  // ρ = (1 − h + n̄(F))·λ·s̄/b; eqs. (8)/(16).
  out.utilization = (1.0 - out.hit_ratio + nf) * lambda * s / b;

  // Threshold p_th = ρ' + q; eqs. (13)/(21).
  out.threshold = out.baseline.utilization + q;

  // Positivity conditions, eqs. (12)/(20).
  const double demand_margin = b - f * lambda * s;
  const double denom = demand_margin - nf * (1.0 - p + q) * lambda * s;
  out.conditions.prob_above_threshold = p * b - f * lambda * s - q * b > 0.0;
  out.conditions.demand_within_capacity = demand_margin > 0.0;
  out.conditions.total_within_capacity = denom > 0.0;

  // r̄ = s̄ / (b − (1 − h + n̄(F))λs̄); eqs. (9)/(17). Algebraically the
  // denominator equals `denom` above.
  out.retrieval_time = s / denom;

  // t̄ = (1 − h)·r̄; eqs. (10)/(18).
  out.access_time = (1.0 - out.hit_ratio) * out.retrieval_time;

  // G = t̄' − t̄, in the factored form of eqs. (11)/(19).
  out.gain = nf * s * (p * b - f * lambda * s - q * b) /
             (demand_margin * denom);
  return out;
}

PrefetchAnalysis analyze(const SystemParams& params, const OperatingPoint& op,
                         InteractionModel model) {
  return analyze_with_victim_value(params, op, victim_value(params, model));
}

double threshold(const SystemParams& params, InteractionModel model) {
  params.validate();
  return params.utilization_no_prefetch() + victim_value(params, model);
}

double prefetch_rate_limit_at_min_bandwidth(const SystemParams& params,
                                            double p, InteractionModel model) {
  params.validate();
  SPECPF_EXPECTS(p > 0.0 && p <= 1.0);
  const double q = victim_value(params, model);
  SPECPF_EXPECTS(p > q);
  // Eq. (14) for Model A (f'/p) and eq. (22) for Model B (f'/(p − h'/n̄(C))).
  return params.fault_ratio() / (p - q);
}

double prefetch_rate_capacity_limit(const SystemParams& params, double p,
                                    InteractionModel model) {
  params.validate();
  SPECPF_EXPECTS(p > 0.0 && p <= 1.0);
  const double q = victim_value(params, model);
  const double demand_margin =
      params.bandwidth - params.fault_ratio() * params.request_rate *
                             params.mean_item_size;
  SPECPF_EXPECTS(demand_margin > 0.0);
  const double coeff =
      (1.0 - p + q) * params.request_rate * params.mean_item_size;
  if (coeff <= 0.0) return std::numeric_limits<double>::infinity();
  return demand_margin / coeff;
}

}  // namespace specpf::core
