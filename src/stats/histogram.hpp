// Logarithmic histogram for latency distributions. Quantile queries
// interpolate within bins, which is accurate enough for reporting
// p50/p95/p99 of simulated access times.
#pragma once

#include <cstdint>
#include <vector>

namespace specpf {

/// Log2-spaced histogram for heavy-tailed positive values (sizes, sojourns).
class LogHistogram {
 public:
  /// Buckets are [2^k, 2^(k+1)) for k in [min_exp, max_exp].
  LogHistogram(int min_exp = -20, int max_exp = 40);

  void add(double x) noexcept;

  /// Combines another histogram with an identical exponent range (checked).
  void merge(const LogHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double quantile(double q) const;

 private:
  int min_exp_, max_exp_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

}  // namespace specpf
