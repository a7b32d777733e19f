// Random variate generators used by workload models and the DES testbed.
//
// All distributions draw from an externally owned Rng so that components can
// interleave draws deterministically. Each class documents its mean so that
// tests can verify moments.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace specpf {

/// Abstract positive-valued distribution (sizes, interarrival times).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one variate using the supplied generator.
  virtual double sample(Rng& rng) const = 0;

  /// Analytical mean of the distribution (used to parameterise closed forms).
  virtual double mean() const = 0;
};

/// Point mass at `value`.
class DeterministicDist final : public Distribution {
 public:
  explicit DeterministicDist(double value);
  double sample(Rng&) const override { return value_; }
  double mean() const override { return value_; }

 private:
  double value_;
};

/// Exponential with the given mean (rate = 1/mean).
class ExponentialDist final : public Distribution {
 public:
  explicit ExponentialDist(double mean);
  double sample(Rng& rng) const override;
  double mean() const override { return mean_; }

 private:
  double mean_;
};

/// Bounded Pareto on [lo, hi] with shape alpha — the classic heavy-tailed
/// model for web object sizes (Crovella & Bestavros).
class BoundedParetoDist final : public Distribution {
 public:
  BoundedParetoDist(double shape, double lo, double hi);
  double sample(Rng& rng) const override;
  double mean() const override;
  double shape() const { return shape_; }

 private:
  double shape_, lo_, hi_;
};

/// Zipf(α) over ranks {0, ..., n-1}: P(rank k) ∝ (k+1)^-α.
///
/// Sampling is O(1) amortised via Hörmann–Derflinger rejection-inversion, so
/// catalogs of 10^7+ items need no lookup tables.
class ZipfDist {
 public:
  ZipfDist(std::size_t n, double alpha);

  /// Draws a rank in [0, n).
  std::size_t sample(Rng& rng) const;

  /// P(rank k), exactly normalised.
  double pmf(std::size_t rank) const;

  std::size_t size() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  double h(double x) const;      // integral of x^-alpha
  double h_inv(double u) const;  // inverse of h

  std::size_t n_;
  double alpha_;
  double h_x1_, h_n_half_, s_;
  double harmonic_;  // H_{n,alpha} for exact pmf
};

/// Alias-method sampler over an arbitrary finite discrete distribution.
/// Construction O(n), sampling O(1) — used for empirical popularity vectors.
class DiscreteDist {
 public:
  /// `weights` need not be normalised; they must be non-negative with a
  /// positive sum.
  explicit DiscreteDist(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const;
  double pmf(std::size_t index) const;
  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;        // normalised pmf (for pmf())
  std::vector<double> accept_;      // alias acceptance thresholds
  std::vector<std::uint32_t> alias_;
};

}  // namespace specpf
