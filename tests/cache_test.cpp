// Cache substrate: generic properties of the cache plane parameterised over
// every eviction policy (one user, the per-client view), plus
// policy-specific victim selection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_plane.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

using core::InteractionModel;

constexpr std::uint32_t kUser = 0;

std::unique_ptr<CachePlane> make_one_user(CacheKind kind, std::size_t cap,
                                          std::uint64_t seed = 42) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = cap;
  config.seed = seed;
  return make_cache_plane(kind, config);
}

/// Records eviction victims in order.
struct Victims {
  std::vector<ItemId> items;
  void attach(CachePlane& plane) {
    plane.set_eviction_observer(
        [this](std::uint32_t, ItemId item, EntryTag) { items.push_back(item); });
  }
};

class AnyCacheTest : public ::testing::TestWithParam<CacheKind> {
 protected:
  std::unique_ptr<CachePlane> make(std::size_t cap) const {
    return make_one_user(GetParam(), cap);
  }
};

TEST_P(AnyCacheTest, InsertThenLookupHits) {
  auto cache = make(4);
  cache->admit_demand(kUser, 1);
  EXPECT_EQ(cache->access(kUser, 1), AccessOutcome::kHitTagged);
}

TEST_P(AnyCacheTest, MissingItemMisses) {
  auto cache = make(4);
  EXPECT_EQ(cache->access(kUser, 99), AccessOutcome::kMiss);
  EXPECT_FALSE(cache->contains(kUser, 99));
}

TEST_P(AnyCacheTest, NeverExceedsCapacity) {
  auto cache = make(8);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    cache->admit_demand(kUser, rng.next_below(100));
    ASSERT_LE(cache->size(kUser), 8u);
  }
  EXPECT_EQ(cache->size(kUser), 8u);
}

TEST_P(AnyCacheTest, EvictionObserverFiresOncePerEviction) {
  auto cache = make(2);
  int evictions = 0;
  cache->set_eviction_observer(
      [&](std::uint32_t, ItemId, EntryTag) { ++evictions; });
  for (ItemId i = 0; i < 10; ++i) cache->admit_demand(kUser, i);
  EXPECT_EQ(evictions, 8);
}

TEST_P(AnyCacheTest, FirstTouchRetagsPrefetchedEntry) {
  auto cache = make(4);
  cache->admit_prefetch(kUser, 1);  // untagged
  EXPECT_EQ(cache->access(kUser, 1), AccessOutcome::kHitUntagged);
  EXPECT_EQ(cache->access(kUser, 1), AccessOutcome::kHitTagged);
  EXPECT_EQ(cache->prefetch_first_uses(kUser), 1u);
}

TEST_P(AnyCacheTest, ReinsertUpdatesTagWithoutGrowth) {
  auto cache = make(4);
  cache->admit_prefetch(kUser, 1);
  cache->admit_demand(kUser, 1);
  EXPECT_EQ(cache->size(kUser), 1u);
  EXPECT_EQ(cache->access(kUser, 1), AccessOutcome::kHitTagged);
}

TEST_P(AnyCacheTest, EstimateCountsAccessesAndTaggedHits) {
  // Model A ĥ' = tagged hits / accesses.
  auto cache = make(4);
  cache->admit_demand(kUser, 1);
  cache->access(kUser, 1);
  cache->access(kUser, 2);
  EXPECT_DOUBLE_EQ(cache->estimate(kUser, InteractionModel::kModelA), 0.5);
}

TEST_P(AnyCacheTest, ContainsDoesNotPerturbEstimate) {
  auto cache = make(4);
  cache->admit_demand(kUser, 1);
  cache->access(kUser, 1);  // one tagged hit out of one access
  cache->contains(kUser, 1);
  cache->contains(kUser, 2);
  EXPECT_DOUBLE_EQ(cache->estimate(kUser, InteractionModel::kModelA), 1.0);
}

TEST_P(AnyCacheTest, CapacityOneStillWorks) {
  auto cache = make(1);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  EXPECT_EQ(cache->size(kUser), 1u);
  EXPECT_TRUE(cache->contains(kUser, 2));
  EXPECT_FALSE(cache->contains(kUser, 1));
}

TEST_P(AnyCacheTest, WorkloadConservation) {
  // hits + misses == accesses under arbitrary traffic, and the Model A
  // estimate is exactly hits / accesses when every entry is tagged.
  auto cache = make(16);
  Rng rng(11);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  constexpr int kAccesses = 5000;
  for (int i = 0; i < kAccesses; ++i) {
    const ItemId item = rng.next_below(64);
    if (cache->access(kUser, item) == AccessOutcome::kMiss) {
      ++misses;
      cache->admit_demand(kUser, item);
    } else {
      ++hits;
    }
  }
  EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(kAccesses));
  EXPECT_DOUBLE_EQ(cache->estimate(kUser, InteractionModel::kModelA),
                   static_cast<double>(hits) / kAccesses);
}

INSTANTIATE_TEST_SUITE_P(Policies, AnyCacheTest,
                         ::testing::Values(CacheKind::kLru, CacheKind::kFifo,
                                           CacheKind::kLfu, CacheKind::kClock,
                                           CacheKind::kRandom),
                         [](const ::testing::TestParamInfo<CacheKind>& info) {
                           return std::string(cache_kind_name(info.param));
                         });

// --- Policy-specific behaviour ---

TEST(LruPlane, EvictsLeastRecentlyUsed) {
  auto cache = make_one_user(CacheKind::kLru, 3);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  cache->admit_demand(kUser, 3);
  cache->access(kUser, 1);  // refresh 1; victim order now 2,3,1
  cache->admit_demand(kUser, 4);
  EXPECT_FALSE(cache->contains(kUser, 2));
  EXPECT_TRUE(cache->contains(kUser, 1));
  EXPECT_TRUE(cache->contains(kUser, 3));
}

TEST(FifoPlane, LookupDoesNotRefreshPosition) {
  auto cache = make_one_user(CacheKind::kFifo, 3);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  cache->admit_demand(kUser, 3);
  cache->access(kUser, 1);  // irrelevant for FIFO
  cache->admit_demand(kUser, 4);
  EXPECT_FALSE(cache->contains(kUser, 1));
}

TEST(LfuPlane, EvictsLeastFrequentlyUsed) {
  auto cache = make_one_user(CacheKind::kLfu, 3);
  Victims victims;
  victims.attach(*cache);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  cache->admit_demand(kUser, 3);
  cache->access(kUser, 1);
  cache->access(kUser, 1);
  cache->access(kUser, 3);
  cache->admit_demand(kUser, 4);  // 2 has the lowest frequency
  EXPECT_FALSE(cache->contains(kUser, 2));
  // Frequencies now 1:3 (insert + two hits), 3:2, 4:1 — so the next victim
  // is 4, the lone frequency-1 entry; then 3, which ties 5 at frequency 2
  // but reached it first.
  cache->admit_demand(kUser, 5);
  cache->access(kUser, 5);
  cache->admit_demand(kUser, 6);
  EXPECT_EQ(victims.items, (std::vector<ItemId>{2, 4, 3}));
  EXPECT_TRUE(cache->contains(kUser, 1));
}

TEST(LfuPlane, TieBreaksLeastRecentWithinFrequency) {
  auto cache = make_one_user(CacheKind::kLfu, 2);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  // Both at frequency 1; 1 is older within the bucket.
  cache->admit_demand(kUser, 3);
  EXPECT_FALSE(cache->contains(kUser, 1));
  EXPECT_TRUE(cache->contains(kUser, 2));
}

TEST(ClockPlane, SecondChanceSparesReferencedFrames) {
  auto cache = make_one_user(CacheKind::kClock, 3);
  cache->admit_demand(kUser, 1);
  cache->admit_demand(kUser, 2);
  cache->admit_demand(kUser, 3);
  cache->access(kUser, 1);  // sets reference bit again (insert set it too)
  // All referenced: sweep clears all bits, evicts frame 0 on second pass …
  cache->admit_demand(kUser, 4);
  EXPECT_TRUE(cache->contains(kUser, 4));
  EXPECT_EQ(cache->size(kUser), 3u);
}

TEST(RandomPlane, EvictionVictimVaries) {
  // Over many seeds, the victim should not always be the same item.
  int first_evicted = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto cache = make_one_user(CacheKind::kRandom, 3, seed);
    cache->admit_demand(kUser, 1);
    cache->admit_demand(kUser, 2);
    cache->admit_demand(kUser, 3);
    Victims victims;
    victims.attach(*cache);
    cache->admit_demand(kUser, 4);
    ASSERT_EQ(victims.items.size(), 1u);
    if (victims.items[0] == 1) ++first_evicted;
  }
  EXPECT_GT(first_evicted, 0);
  EXPECT_LT(first_evicted, 20);
}

TEST(CacheConstruction, RejectsZeroCapacity) {
  for (CacheKind kind : {CacheKind::kLru, CacheKind::kFifo, CacheKind::kLfu,
                         CacheKind::kClock, CacheKind::kRandom}) {
    EXPECT_THROW(make_one_user(kind, 0), ContractViolation)
        << cache_kind_name(kind);
  }
}

}  // namespace
}  // namespace specpf
