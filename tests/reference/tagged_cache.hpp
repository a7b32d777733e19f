// TaggedCache — composes any eviction policy with the paper's §4 protocol
// for estimating h' (the hit ratio the cache would have without
// prefetching) while prefetching is live.
//
// The wrapper routes accesses through a HitRatioEstimator and maintains the
// tag transitions:
//   prefetch insert  -> untagged
//   demand insert    -> tagged
//   hit on untagged  -> becomes tagged (counted as access, not as nhit)
//   hit on tagged    -> counted as nhit
// It also tracks the realised n̄(F) (prefetch insertions per demand access)
// that Model B's correction factor needs.
#pragma once

#include <memory>

#include "cache/tag_protocol.hpp"
#include "core/hit_ratio_estimator.hpp"
#include "reference/cache.hpp"

namespace specpf {

class TaggedCache {
 public:
  /// Takes ownership of the underlying eviction policy.
  explicit TaggedCache(std::unique_ptr<Cache> inner);

  /// A user request for `item`: updates estimator counters and tag state.
  AccessOutcome access(ItemId item);

  /// Records a completed demand fetch being admitted to the cache.
  void admit_demand(ItemId item);

  /// Records a completed prefetch being admitted to the cache (untagged).
  void admit_prefetch(ItemId item);

  /// A prefetch that was claimed by a request while still in flight: the
  /// entry enters the cache already tagged (insert-untagged + first access
  /// collapsed into one step) and counts as a used prefetch.
  void admit_prefetch_accessed(ItemId item);

  /// ĥ' under Model A (nhit / naccess).
  double estimate_model_a() const { return estimator_.estimate_model_a(); }

  /// ĥ' under Model B, using the realised n̄(C) (current occupancy) and
  /// realised n̄(F) (prefetch insertions per access so far).
  double estimate_model_b() const;

  /// Realised prefetch insertions per demand access.
  double realized_prefetch_rate() const;

  const Cache& inner() const { return *inner_; }
  Cache& inner() { return *inner_; }
  const core::HitRatioEstimator& estimator() const { return estimator_; }

  /// Prefetched entries that have been touched at least once (untagged→
  /// tagged transitions): the numerator of prefetch usefulness.
  std::uint64_t prefetch_first_uses() const { return prefetch_first_uses_; }
  std::uint64_t prefetch_inserts() const { return prefetch_inserts_; }

 private:
  std::unique_ptr<Cache> inner_;
  core::HitRatioEstimator estimator_;
  std::uint64_t prefetch_inserts_ = 0;
  std::uint64_t prefetch_first_uses_ = 0;
};

}  // namespace specpf
