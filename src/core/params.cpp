#include "core/params.hpp"

#include "util/contract.hpp"

namespace specpf::core {

std::string SystemParams::check() const {
  if (!positive_finite(bandwidth)) {
    return config_error("bandwidth", "must be positive and finite", bandwidth);
  }
  if (!(request_rate >= 0.0 && std::isfinite(request_rate))) {
    return config_error("request_rate", "must be non-negative and finite",
                        request_rate);
  }
  if (!positive_finite(mean_item_size)) {
    return config_error("mean_item_size", "must be positive and finite",
                        mean_item_size);
  }
  if (!(hit_ratio >= 0.0 && hit_ratio <= 1.0)) {
    return config_error("hit_ratio", "must be in [0, 1]", hit_ratio);
  }
  if (!positive_finite(cache_items)) {
    return config_error("cache_items", "must be positive and finite",
                        cache_items);
  }
  return {};
}

std::string SystemParams::check_stable() const {
  if (stable_without_prefetch()) return {};
  return config_error("utilization_no_prefetch",
                      "must be below 1 (demand traffic f'*lambda*s/b alone "
                      "saturates the link)",
                      utilization_no_prefetch());
}

void SystemParams::validate() const { expect_valid(check()); }

double max_candidates(const SystemParams& params, double access_probability) {
  SPECPF_EXPECTS(access_probability > 0.0 && access_probability <= 1.0);
  return params.fault_ratio() / access_probability;
}

}  // namespace specpf::core
