#include "stats/histogram.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace specpf {

LogHistogram::LogHistogram(int min_exp, int max_exp)
    : min_exp_(min_exp), max_exp_(max_exp),
      bins_(static_cast<std::size_t>(max_exp - min_exp + 1), 0) {
  SPECPF_EXPECTS(max_exp > min_exp);
}

void LogHistogram::add(double x) noexcept {
  ++count_;
  int exp = min_exp_;
  if (x > 0.0 && std::isfinite(x)) {
    exp = static_cast<int>(std::floor(std::log2(x)));
  }
  if (exp < min_exp_) exp = min_exp_;
  if (exp > max_exp_) exp = max_exp_;
  ++bins_[static_cast<std::size_t>(exp - min_exp_)];
}

void LogHistogram::merge(const LogHistogram& other) {
  SPECPF_EXPECTS(min_exp_ == other.min_exp_ && max_exp_ == other.max_exp_);
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  SPECPF_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cumulative + static_cast<double>(bins_[i]);
    if (next >= target) {
      const double lo = std::exp2(min_exp_ + static_cast<int>(i));
      const double hi = lo * 2.0;
      const double frac =
          bins_[i] == 0 ? 0.0
                        : (target - cumulative) / static_cast<double>(bins_[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return std::exp2(max_exp_ + 1);
}

}  // namespace specpf
