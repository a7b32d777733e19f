// System parameters of the paper's multi-user network access model (§2).
//
// Symbols follow the paper's appendix:
//   b      bandwidth (units/s)
//   λ      aggregate user request rate (requests/s)
//   s̄      average item size (units)
//   h'     cache hit ratio with no prefetching
//   n̄(C)   average number of items in a user's cache
#pragma once

#include <string>

namespace specpf::core {

struct SystemParams {
  double bandwidth = 50.0;        ///< b > 0
  double request_rate = 30.0;     ///< λ >= 0
  double mean_item_size = 1.0;    ///< s̄ > 0
  double hit_ratio = 0.0;         ///< h' in [0, 1]
  double cache_items = 100.0;     ///< n̄(C) > 0 (only Model B / AB use it)

  /// Cache fault ratio f' = 1 - h'.
  double fault_ratio() const noexcept { return 1.0 - hit_ratio; }

  /// Mean service time of one retrieval, x = s̄/b. Paper eq. (3).
  double service_time() const noexcept { return mean_item_size / bandwidth; }

  /// No-prefetch server utilisation ρ' = f'·λ·s̄/b.
  double utilization_no_prefetch() const noexcept {
    return fault_ratio() * request_rate * service_time();
  }

  /// True when demand traffic alone is within capacity (ρ' < 1) —
  /// condition 2 of (12)/(20).
  bool stable_without_prefetch() const noexcept {
    return utilization_no_prefetch() < 1.0;
  }

  /// "" when every field is in its domain, else "<field>: <rule>, got
  /// <value>" for the first that is not: bandwidth, item size and cache
  /// occupancy positive and finite, request rate non-negative and finite,
  /// hit ratio in [0, 1]. Frontends call it at the edge and exit 2 on a
  /// message.
  std::string check() const;

  /// "" when demand traffic alone is within capacity (ρ' < 1), else
  /// "utilization_no_prefetch: <rule>, got <ρ'>". A cross-field rule kept
  /// out of check(): frontends that size the bandwidth after reading the
  /// other fields call it once the link is known.
  std::string check_stable() const;

  /// Throws ContractViolation carrying check()'s message.
  void validate() const;
};

/// Upper bound max(np) = f'/p on how many items can simultaneously have
/// access probability >= p. Paper eq. (6). Requires p in (0, 1].
double max_candidates(const SystemParams& params, double access_probability);

}  // namespace specpf::core
