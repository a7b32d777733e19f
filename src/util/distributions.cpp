#include "util/distributions.hpp"

#include <cmath>
#include <deque>

#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

DeterministicDist::DeterministicDist(double value) : value_(value) {
  SPECPF_EXPECTS(value >= 0.0);
}

ExponentialDist::ExponentialDist(double mean) : mean_(mean) {
  SPECPF_EXPECTS(mean > 0.0);
}

double ExponentialDist::sample(Rng& rng) const {
  // Inversion; 1 - u avoids log(0) because next_double() < 1.
  return -mean_ * std::log1p(-rng.next_double());
}

BoundedParetoDist::BoundedParetoDist(double shape, double lo, double hi)
    : shape_(shape), lo_(lo), hi_(hi) {
  SPECPF_EXPECTS(shape > 0.0);
  SPECPF_EXPECTS(lo > 0.0 && hi > lo);
}

double BoundedParetoDist::sample(Rng& rng) const {
  // Inverse CDF of the truncated Pareto.
  const double u = rng.next_double();
  const double la = std::pow(lo_, shape_);
  const double ha = std::pow(hi_, shape_);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / shape_);
}

double BoundedParetoDist::mean() const {
  if (std::abs(shape_ - 1.0) < 1e-12) {
    return (std::log(hi_) - std::log(lo_)) /
           (1.0 / lo_ - 1.0 / hi_);
  }
  const double la = std::pow(lo_, shape_);
  const double ha = std::pow(hi_, shape_);
  return la / (1.0 - la / ha) * shape_ / (shape_ - 1.0) *
         (1.0 / std::pow(lo_, shape_ - 1.0) - 1.0 / std::pow(hi_, shape_ - 1.0));
}

// ---------------------------------------------------------------------------
// ZipfDist — Hörmann & Derflinger (1996) rejection-inversion. We sample ranks
// k in [1, n] with P(k) ∝ k^-alpha, then shift to [0, n).
// ---------------------------------------------------------------------------

namespace {
// Helper: (exp(x*t) - 1) / x, stable as x -> 0.
double expm1_over(double x, double t) {
  return x == 0.0 ? t : std::expm1(x * t) / x;
}
}  // namespace

ZipfDist::ZipfDist(std::size_t n, double alpha) : n_(n), alpha_(alpha) {
  SPECPF_EXPECTS(n >= 1);
  SPECPF_EXPECTS(alpha > 0.0);
  h_x1_ = h(1.5) - 1.0;
  h_n_half_ = h(static_cast<double>(n_) + 0.5);
  s_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -alpha_));
  harmonic_ = generalized_harmonic(n_, alpha_);
}

double ZipfDist::h(double x) const {
  // integral of u^-alpha du evaluated so that h is increasing.
  const double one_minus = 1.0 - alpha_;
  return expm1_over(one_minus, std::log(x));
}

double ZipfDist::h_inv(double u) const {
  const double one_minus = 1.0 - alpha_;
  return std::exp(one_minus == 0.0 ? u : std::log1p(u * one_minus) / one_minus);
}

std::size_t ZipfDist::sample(Rng& rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u = h_n_half_ + rng.next_double() * (h_x1_ - h_n_half_);
    const double x = h_inv(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    if (k - x <= s_ || u >= h(k + 0.5) - std::pow(k, -alpha_)) {
      return static_cast<std::size_t>(k) - 1;
    }
  }
}

double ZipfDist::pmf(std::size_t rank) const {
  SPECPF_EXPECTS(rank < n_);
  return std::pow(static_cast<double>(rank + 1), -alpha_) / harmonic_;
}

// ---------------------------------------------------------------------------
// DiscreteDist — Vose alias method.
// ---------------------------------------------------------------------------

DiscreteDist::DiscreteDist(const std::vector<double>& weights) {
  SPECPF_EXPECTS(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SPECPF_EXPECTS(w >= 0.0);
    total += w;
  }
  SPECPF_EXPECTS(total > 0.0);

  const std::size_t n = weights.size();
  prob_.resize(n);
  accept_.assign(n, 0.0);
  alias_.assign(n, 0);

  std::vector<double> scaled(n);
  std::deque<std::size_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = weights[i] / total;
    scaled[i] = prob_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.front();
    small.pop_front();
    const std::size_t l = large.front();
    large.pop_front();
    accept_[s] = scaled[s];
    alias_[s] = static_cast<std::uint32_t>(l);
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::size_t i : large) accept_[i] = 1.0;
  for (std::size_t i : small) accept_[i] = 1.0;  // numerical leftovers
}

std::size_t DiscreteDist::sample(Rng& rng) const {
  const std::size_t column = rng.next_below(prob_.size());
  return rng.next_double() < accept_[column] ? column : alias_[column];
}

double DiscreteDist::pmf(std::size_t index) const {
  SPECPF_EXPECTS(index < prob_.size());
  return prob_[index];
}

}  // namespace specpf
