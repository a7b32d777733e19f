#include "reference/tagged_cache.hpp"

#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

TaggedCache::TaggedCache(std::unique_ptr<Cache> inner)
    : inner_(std::move(inner)) {
  SPECPF_EXPECTS(inner_ != nullptr);
}

AccessOutcome TaggedCache::access(ItemId item) {
  const auto tag = inner_->lookup(item);
  if (!tag.has_value()) {
    estimator_.on_cache_miss();
    return AccessOutcome::kMiss;
  }
  const EntryTag new_tag = estimator_.on_cache_hit(*tag);
  if (new_tag != *tag) {
    inner_->set_tag(item, new_tag);
    ++prefetch_first_uses_;
    return AccessOutcome::kHitUntagged;
  }
  return AccessOutcome::kHitTagged;
}

void TaggedCache::admit_demand(ItemId item) {
  inner_->insert(item, core::HitRatioEstimator::demand_insert_tag());
}

void TaggedCache::admit_prefetch(ItemId item) {
  // Re-prefetching a resident item must not downgrade its tag: a tagged
  // entry's future hits would have happened without prefetching, and that
  // attribution is exactly what §4's protocol measures.
  if (inner_->contains(item)) return;
  ++prefetch_inserts_;
  inner_->insert(item, core::HitRatioEstimator::prefetch_insert_tag());
}

void TaggedCache::admit_prefetch_accessed(ItemId item) {
  ++prefetch_inserts_;
  ++prefetch_first_uses_;
  inner_->insert(item, core::HitRatioEstimator::demand_insert_tag());
}

double TaggedCache::realized_prefetch_rate() const {
  return safe_div(static_cast<double>(prefetch_inserts_),
                  static_cast<double>(estimator_.accesses()), 0.0);
}

double TaggedCache::estimate_model_b() const {
  return tagged_model_b_estimate(estimator_, prefetch_inserts_,
                                 static_cast<double>(inner_->size()));
}

}  // namespace specpf
