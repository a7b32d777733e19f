#include "cache/tag_protocol.hpp"

#include "util/math.hpp"

namespace specpf {

double tagged_model_b_estimate(const core::HitRatioEstimator& estimator,
                               std::uint64_t prefetch_inserts,
                               double resident_items) {
  const double nf = safe_div(static_cast<double>(prefetch_inserts),
                             static_cast<double>(estimator.accesses()), 0.0);
  if (resident_items <= nf) {  // degenerate: tiny cache
    return estimator.estimate_model_a();
  }
  return estimator.estimate_model_b(resident_items, nf);
}

}  // namespace specpf
