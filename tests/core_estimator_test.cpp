// §4 online h' estimation: protocol transitions and statistical accuracy on
// synthetic access streams with known ground truth.
#include <gtest/gtest.h>

#include <memory>

#include "cache/cache_plane.hpp"
#include "core/hit_ratio_estimator.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

using core::EntryTag;
using core::HitRatioEstimator;

TEST(HitRatioEstimator, TagConstants) {
  EXPECT_EQ(HitRatioEstimator::prefetch_insert_tag(), EntryTag::kUntagged);
  EXPECT_EQ(HitRatioEstimator::demand_insert_tag(), EntryTag::kTagged);
}

TEST(HitRatioEstimator, TaggedHitIncrementsBoth) {
  HitRatioEstimator est;
  est.on_cache_hit(EntryTag::kTagged);
  EXPECT_EQ(est.accesses(), 1u);
  EXPECT_EQ(est.tagged_hits(), 1u);
}

TEST(HitRatioEstimator, UntaggedHitCountsAccessOnlyAndPromotes) {
  HitRatioEstimator est;
  const EntryTag after = est.on_cache_hit(EntryTag::kUntagged);
  EXPECT_EQ(after, EntryTag::kTagged);
  EXPECT_EQ(est.accesses(), 1u);
  EXPECT_EQ(est.tagged_hits(), 0u);
}

TEST(HitRatioEstimator, MissCountsAccessOnly) {
  HitRatioEstimator est;
  est.on_cache_miss();
  EXPECT_EQ(est.accesses(), 1u);
  EXPECT_EQ(est.tagged_hits(), 0u);
}

TEST(HitRatioEstimator, ModelAEstimateIsRatio) {
  HitRatioEstimator est;
  est.on_cache_hit(EntryTag::kTagged);
  est.on_cache_hit(EntryTag::kTagged);
  est.on_cache_miss();
  est.on_cache_hit(EntryTag::kUntagged);
  EXPECT_DOUBLE_EQ(est.estimate_model_a(), 0.5);
}

TEST(HitRatioEstimator, ModelBAppliesCorrectionFactor) {
  HitRatioEstimator est;
  est.on_cache_hit(EntryTag::kTagged);
  est.on_cache_miss();
  // ĥ'_B = 0.5 × n̄(C)/(n̄(C)−n̄(F)) = 0.5 × 100/80.
  EXPECT_DOUBLE_EQ(est.estimate_model_b(100.0, 20.0), 0.625);
}

TEST(HitRatioEstimator, ModelBRejectsDegenerateCache) {
  HitRatioEstimator est;
  EXPECT_THROW(est.estimate_model_b(10.0, 10.0), ContractViolation);
  EXPECT_THROW(est.estimate_model_b(5.0, -1.0), ContractViolation);
}

TEST(HitRatioEstimator, EmptyEstimateIsZero) {
  HitRatioEstimator est;
  EXPECT_DOUBLE_EQ(est.estimate_model_a(), 0.0);
}

TEST(HitRatioEstimator, ResetClearsCounters) {
  HitRatioEstimator est;
  est.on_cache_hit(EntryTag::kTagged);
  est.reset();
  EXPECT_EQ(est.accesses(), 0u);
  EXPECT_DOUBLE_EQ(est.estimate_model_a(), 0.0);
}

// --- Protocol through the cache plane (one user) ---

constexpr std::uint32_t kUser = 0;

std::unique_ptr<CachePlane> make_lru_cache(std::size_t capacity) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = capacity;
  return make_cache_plane(CacheKind::kLru, config);
}

TEST(TaggedProtocol, SecondTouchOfPrefetchedEntryCountsAsWouldHaveHit) {
  auto cache = make_lru_cache(10);
  cache->admit_prefetch(kUser, 7);
  // First touch: untagged -> access counted, no nhit, becomes tagged.
  EXPECT_EQ(cache->access(kUser, 7), AccessOutcome::kHitUntagged);
  // Second touch: tagged -> nhit. Two accesses, one tagged hit.
  EXPECT_EQ(cache->access(kUser, 7), AccessOutcome::kHitTagged);
  EXPECT_DOUBLE_EQ(cache->estimate(kUser, core::InteractionModel::kModelA),
                   0.5);
}

TEST(TaggedProtocol, DemandAdmissionsAreTagged) {
  auto cache = make_lru_cache(10);
  EXPECT_EQ(cache->access(kUser, 3), AccessOutcome::kMiss);
  cache->admit_demand(kUser, 3);
  EXPECT_EQ(cache->access(kUser, 3), AccessOutcome::kHitTagged);
}

TEST(TaggedProtocol, PrefetchAccessedInFlightCountsAsUsed) {
  auto cache = make_lru_cache(10);
  cache->admit_prefetch_accessed(kUser, 5);
  EXPECT_EQ(cache->prefetch_inserts(kUser), 1u);
  EXPECT_EQ(cache->prefetch_first_uses(kUser), 1u);
  EXPECT_EQ(cache->access(kUser, 5), AccessOutcome::kHitTagged);
}

TEST(TaggedProtocol, ModelBUsesRealizedPrefetchRate) {
  auto cache = make_lru_cache(10);
  cache->admit_demand(kUser, 1);
  cache->access(kUser, 1);  // tagged hit: naccess=1, nhit=1
  cache->admit_prefetch(kUser, 2);
  cache->admit_prefetch(kUser, 3);
  cache->access(kUser, 2);  // untagged first touch: naccess=2
  // Realised n̄(F) = 2 prefetch inserts / 2 accesses = 1, n̄(C) = 3
  // residents: ĥ'_B = 0.5 × 3/(3−1).
  EXPECT_DOUBLE_EQ(cache->estimate(kUser, core::InteractionModel::kModelB),
                   0.75);
  // The shared helper computes the same from an estimator's counters.
  HitRatioEstimator est;
  est.on_cache_hit(EntryTag::kTagged);
  est.on_cache_hit(EntryTag::kUntagged);
  EXPECT_DOUBLE_EQ(tagged_model_b_estimate(est, 2, 3.0), 0.75);
  // Degenerate tiny cache (n̄(F) ≥ n̄(C)) falls back to Model A.
  EXPECT_DOUBLE_EQ(tagged_model_b_estimate(est, 6, 3.0), 0.5);
}

// Statistical accuracy: IRM stream over a small hot set, cache large enough
// to hold everything. Ground truth h' = hit ratio of an identical cache
// receiving no prefetches.
TEST(TaggedProtocol, EstimateMatchesGroundTruthUnderPrefetching) {
  constexpr std::size_t kItems = 40;
  constexpr std::size_t kCap = 400;
  constexpr int kAccesses = 60000;

  auto with_prefetch = make_lru_cache(kCap);
  auto without_prefetch = make_lru_cache(kCap);

  Rng rng(99);
  Rng noise(100);
  for (int i = 0; i < kAccesses; ++i) {
    // Requests over items [0, kItems); prefetcher speculatively inserts
    // *cold* items from a disjoint range (never accessed: pure pollution,
    // which §4's protocol must not count as would-have-hits).
    const std::uint64_t item = rng.next_below(kItems);
    if (with_prefetch->access(kUser, item) == AccessOutcome::kMiss) {
      with_prefetch->admit_demand(kUser, item);
    }
    if (without_prefetch->access(kUser, item) == AccessOutcome::kMiss) {
      without_prefetch->admit_demand(kUser, item);
    }
    // Also prefetch a *hot* item sometimes: prefetch-caused hits must be
    // excluded from ĥ'.
    with_prefetch->admit_prefetch(kUser, 1000 + noise.next_below(5000));
    if (noise.bernoulli(0.3)) {
      with_prefetch->admit_prefetch(kUser, noise.next_below(kItems));
    }
  }
  const double truth =
      without_prefetch->estimate(kUser, core::InteractionModel::kModelA);
  const double estimate =
      with_prefetch->estimate(kUser, core::InteractionModel::kModelA);
  EXPECT_NEAR(estimate, truth, 0.02);
}

}  // namespace
}  // namespace specpf
