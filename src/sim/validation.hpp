// Analytic-vs-simulated comparison: the machinery behind the
// table_sim_vs_analytic bench and the integration test suite. For one
// operating point it evaluates the paper's closed forms and runs replicated
// DES, reporting both plus relative errors.
#pragma once

#include <cstdint>

#include "core/excess_cost.hpp"
#include "core/interaction.hpp"
#include "sim/experiment.hpp"

namespace specpf {

struct ValidationRow {
  // Inputs.
  core::SystemParams params;
  core::OperatingPoint op;
  core::InteractionModel model = core::InteractionModel::kModelA;

  // Closed forms.
  double analytic_hit_ratio = 0.0;
  double analytic_utilization = 0.0;
  double analytic_access_time = 0.0;
  double analytic_gain = 0.0;
  double analytic_excess_cost = 0.0;
  double analytic_access_time_no_prefetch = 0.0;

  // Simulation (means over replications).
  AbstractBatchResult sim_prefetch;
  AbstractBatchResult sim_baseline;  ///< same system with n̄(F) = 0 semantics
  double sim_gain = 0.0;             ///< baseline t̄' − prefetch t̄
  double sim_excess_cost = 0.0;      ///< R − R'

  // Relative errors (|sim − analytic| / |analytic|).
  double err_hit_ratio = 0.0;
  double err_utilization = 0.0;
  double err_access_time = 0.0;
};

struct ValidationOptions {
  std::size_t replications = 8;
  double duration = 2000.0;
  double warmup = 200.0;
  std::uint64_t seed = 42;
};

/// Runs the paired (prefetch vs no-prefetch) validation at one point:
/// exponential sizes, free prefetched hits, replications on the thread pool.
ValidationRow validate_point(const core::SystemParams& params,
                             const core::OperatingPoint& op,
                             core::InteractionModel model,
                             const ValidationOptions& options = {});

}  // namespace specpf
