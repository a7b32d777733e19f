#include "sim/validation.hpp"

#include "util/math.hpp"

namespace specpf {

ValidationRow validate_point(const core::SystemParams& params,
                             const core::OperatingPoint& op,
                             core::InteractionModel model,
                             const ValidationOptions& options) {
  ValidationRow row;
  row.params = params;
  row.op = op;
  row.model = model;

  const core::PrefetchAnalysis analysis = core::analyze(params, op, model);
  row.analytic_hit_ratio = analysis.hit_ratio;
  row.analytic_utilization = analysis.utilization;
  row.analytic_access_time = analysis.access_time;
  row.analytic_gain = analysis.gain;
  row.analytic_access_time_no_prefetch = analysis.baseline.access_time;
  row.analytic_excess_cost = core::excess_cost(
      analysis.utilization, analysis.baseline.utilization,
      params.request_rate);

  AbstractSimConfig cfg;
  cfg.params = params;
  cfg.op = op;
  cfg.model = model;
  cfg.duration = options.duration;
  cfg.warmup = options.warmup;
  cfg.seed = options.seed;
  row.sim_prefetch = run_abstract_replications(cfg, options.replications);

  AbstractSimConfig base = cfg;
  base.op.prefetch_rate = 0.0;
  base.seed = cfg.seed ^ 0x5DEECE66DULL;  // independent baseline streams
  row.sim_baseline = run_abstract_replications(base, options.replications);

  row.sim_gain =
      row.sim_baseline.access_time.mean - row.sim_prefetch.access_time.mean;
  row.sim_excess_cost = row.sim_prefetch.retrieval_per_request.mean -
                        row.sim_baseline.retrieval_per_request.mean;

  row.err_hit_ratio =
      relative_error(row.sim_prefetch.hit_ratio.mean, row.analytic_hit_ratio);
  row.err_utilization = relative_error(row.sim_prefetch.utilization.mean,
                                       row.analytic_utilization);
  row.err_access_time = relative_error(row.sim_prefetch.access_time.mean,
                                       row.analytic_access_time);
  return row;
}

}  // namespace specpf
