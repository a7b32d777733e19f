// Confidence intervals for simulation output analysis: Student-t intervals
// over independent replications. Implemented from scratch (incomplete-beta
// based t quantiles).
#pragma once

#include <cstddef>
#include <vector>

#include "stats/running_stats.hpp"

namespace specpf {

/// Two-sided confidence interval [lo, hi] around a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double half_width = 0.0;
  std::size_t samples = 0;

  /// True when `value` lies inside [lo, hi].
  bool contains(double value) const { return value >= lo && value <= hi; }
};

/// Quantile of the Student-t distribution with `dof` degrees of freedom at
/// two-sided confidence `confidence` (e.g. 0.95). dof >= 1.
double student_t_quantile(std::size_t dof, double confidence);

/// t-interval from raw replication means.
ConfidenceInterval t_interval(const std::vector<double>& samples,
                              double confidence = 0.95);

/// t-interval from a pre-accumulated RunningStats.
ConfidenceInterval t_interval(const RunningStats& stats,
                              double confidence = 0.95);

}  // namespace specpf
