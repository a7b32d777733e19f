#include "stats/confidence.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace specpf {

namespace {

// Regularised incomplete beta via Lentz continued fraction (Numerical
// Recipes 6.4 structure, written from the standard formulas).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

// CDF of Student-t with v dof at t >= 0.
double student_t_cdf(double t, double v) {
  const double x = v / (v + t * t);
  const double tail = 0.5 * incomplete_beta(v / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

}  // namespace

double student_t_quantile(std::size_t dof, double confidence) {
  SPECPF_EXPECTS(dof >= 1);
  SPECPF_EXPECTS(confidence > 0.0 && confidence < 1.0);
  const double target = 1.0 - (1.0 - confidence) / 2.0;  // upper tail point
  // Bisection on the CDF: monotone, and [0, 1000] covers any practical case.
  double lo = 0.0, hi = 1000.0;
  const double v = static_cast<double>(dof);
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, v) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

ConfidenceInterval t_interval(const std::vector<double>& samples,
                              double confidence) {
  RunningStats stats;
  for (double s : samples) stats.add(s);
  return t_interval(stats, confidence);
}

ConfidenceInterval t_interval(const RunningStats& stats, double confidence) {
  ConfidenceInterval ci;
  ci.mean = stats.mean();
  ci.samples = stats.count();
  if (stats.count() < 2) {
    ci.lo = ci.hi = ci.mean;
    return ci;
  }
  const double t = student_t_quantile(stats.count() - 1, confidence);
  ci.half_width = t * stats.std_error();
  ci.lo = ci.mean - ci.half_width;
  ci.hi = ci.mean + ci.half_width;
  return ci;
}

}  // namespace specpf
