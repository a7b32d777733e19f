// The paper's §4 tagged/untagged protocol for estimating h' (the hit ratio
// the cache would have without prefetching) while prefetching is live:
//   prefetch insert  -> untagged
//   demand insert    -> tagged
//   hit on untagged  -> becomes tagged (counted as access, not as nhit)
//   hit on tagged    -> counted as nhit
// The cache plane (cache/cache_plane.hpp) runs it for every user.
#pragma once

#include <cstdint>

#include "core/hit_ratio_estimator.hpp"

namespace specpf {

/// What a cache access observed under the §4 protocol.
enum class AccessOutcome {
  kMiss,         ///< not resident
  kHitTagged,    ///< hit on a tagged entry (a "would-have-hit" per §4)
  kHitUntagged,  ///< first touch of a prefetched entry (now tagged)
};

/// Model-B ĥ' from the protocol counters: Model A × n̄(C)/(n̄(C) − n̄(F)),
/// with the realised n̄(F) = prefetch_inserts / accesses, falling back to
/// Model A when n̄(F) ≥ n̄(C) (degenerate: tiny cache). The cache plane
/// packs its counters to 32 bits and repeats this arithmetic expression for
/// expression, so both produce bit-identical estimates.
double tagged_model_b_estimate(const core::HitRatioEstimator& estimator,
                               std::uint64_t prefetch_inserts,
                               double resident_items);

}  // namespace specpf
