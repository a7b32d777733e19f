// Differential tests: each cache-plane eviction policy (one user, both
// arena residency modes) is checked against an obviously-correct (slow)
// reference model on long random operation sequences — accesses, demand
// admissions, prefetch admissions — comparing hit/miss outcomes, size, and
// eviction victims step by step. ValueCache gets the same treatment.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_plane.hpp"
#include "cache/value_cache.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

constexpr std::uint32_t kUser = 0;

/// One-user plane whose eviction victims land in `victims`.
std::unique_ptr<CachePlane> make_observed(CacheKind kind, std::size_t cap,
                                          std::vector<ItemId>* victims) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = cap;
  auto plane = make_cache_plane(kind, config);
  plane->set_eviction_observer(
      [victims](std::uint32_t, ItemId item, EntryTag) {
        victims->push_back(item);
      });
  return plane;
}

/// Capacities on both sides of arena::kInlineResidencyCapacity: the
/// per-user-block arenas and the shared-slab + FlatIndexMap arenas.
constexpr std::size_t kCapacities[] = {12, 24};

/// Reference LRU: vector ordered most-recent-first.
class RefLru {
 public:
  explicit RefLru(std::size_t cap) : cap_(cap) {}

  bool lookup(ItemId item) {
    auto it = std::find(order_.begin(), order_.end(), item);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.insert(order_.begin(), item);
    return true;
  }
  bool contains(ItemId item) const {
    return std::find(order_.begin(), order_.end(), item) != order_.end();
  }
  /// Returns the eviction victim, or nullopt.
  std::optional<ItemId> insert(ItemId item) {
    auto it = std::find(order_.begin(), order_.end(), item);
    if (it != order_.end()) {
      order_.erase(it);
      order_.insert(order_.begin(), item);
      return std::nullopt;
    }
    std::optional<ItemId> victim;
    if (order_.size() >= cap_) {
      victim = order_.back();
      order_.pop_back();
    }
    order_.insert(order_.begin(), item);
    return victim;
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t cap_;
  std::vector<ItemId> order_;
};

TEST(CacheDifferential, LruMatchesReferenceOnRandomOps) {
  for (std::size_t cap : kCapacities) {
    for (std::uint64_t seed : {7ULL, 77ULL, 777ULL}) {
      std::vector<ItemId> victims;
      auto cache = make_observed(CacheKind::kLru, cap, &victims);
      RefLru ref(cap);
      Rng rng(seed);
      for (int op = 0; op < 20000; ++op) {
        const ItemId item = rng.next_below(cap * 4);
        const auto kind = rng.next_below(10);
        victims.clear();
        std::optional<ItemId> expected_victim;
        if (kind < 5) {
          EXPECT_EQ(cache->access(kUser, item) != AccessOutcome::kMiss,
                    ref.lookup(item))
              << "op " << op;
        } else if (kind < 9) {
          expected_victim = ref.insert(item);
          cache->admit_demand(kUser, item);
        } else {
          // A prefetch of a resident item is a no-op (no recency refresh).
          if (!ref.contains(item)) expected_victim = ref.insert(item);
          cache->admit_prefetch(kUser, item);
        }
        if (expected_victim.has_value()) {
          ASSERT_EQ(victims.size(), 1u) << "op " << op;
          EXPECT_EQ(victims[0], *expected_victim) << "op " << op;
        } else {
          EXPECT_TRUE(victims.empty()) << "op " << op;
        }
        ASSERT_EQ(cache->size(kUser), ref.size()) << "op " << op;
      }
    }
  }
}

/// Reference FIFO: insertion-ordered vector, lookups don't touch order.
TEST(CacheDifferential, FifoMatchesReferenceOnRandomOps) {
  for (std::size_t cap : kCapacities) {
    for (std::uint64_t seed : {3ULL, 33ULL}) {
      std::vector<ItemId> victims;
      auto cache = make_observed(CacheKind::kFifo, cap, &victims);
      std::vector<ItemId> ref_order;  // front = oldest
      Rng rng(seed);
      for (int op = 0; op < 20000; ++op) {
        const ItemId item = rng.next_below(cap * 4);
        const auto kind = rng.next_below(10);
        const bool resident =
            std::find(ref_order.begin(), ref_order.end(), item) !=
            ref_order.end();
        if (kind < 5) {
          EXPECT_EQ(cache->access(kUser, item) != AccessOutcome::kMiss,
                    resident)
              << "op " << op;
        } else {
          victims.clear();
          if (kind < 9) {
            cache->admit_demand(kUser, item);
          } else {
            cache->admit_prefetch(kUser, item);
          }
          if (!resident) {
            if (ref_order.size() >= cap) {
              ASSERT_EQ(victims.size(), 1u) << "op " << op;
              EXPECT_EQ(victims[0], ref_order.front()) << "op " << op;
              ref_order.erase(ref_order.begin());
            }
            ref_order.push_back(item);
          } else {
            EXPECT_TRUE(victims.empty()) << "op " << op;
          }
        }
        ASSERT_EQ(cache->size(kUser), ref_order.size()) << "op " << op;
      }
    }
  }
}

/// Reference LFU with LRU tie-break: (count, last-use recency) ordering.
TEST(CacheDifferential, LfuMatchesReferenceOnRandomOps) {
  for (std::size_t cap : kCapacities) {
    std::vector<ItemId> victims;
    auto cache = make_observed(CacheKind::kLfu, cap, &victims);
    struct RefEntry {
      std::uint64_t freq = 0;
      std::uint64_t touched = 0;  // global counter at last touch at this freq
    };
    std::map<ItemId, RefEntry> ref;
    std::uint64_t clock = 0;

    auto ref_victim = [&]() {
      // Min frequency; among those, least recently touched.
      ItemId victim = 0;
      bool first = true;
      for (const auto& [item, e] : ref) {
        if (first || e.freq < ref.at(victim).freq ||
            (e.freq == ref.at(victim).freq &&
             e.touched < ref.at(victim).touched)) {
          victim = item;
          first = false;
        }
      }
      return victim;
    };

    Rng rng(99);
    for (int op = 0; op < 20000; ++op) {
      const ItemId item = rng.next_below(cap * 3);
      const bool resident = ref.count(item) != 0;
      const auto kind = rng.next_below(10);
      victims.clear();
      if (kind < 5) {
        EXPECT_EQ(cache->access(kUser, item) != AccessOutcome::kMiss, resident)
            << "op " << op;
        if (resident) {
          ++ref[item].freq;
          ref[item].touched = ++clock;
        }
      } else if (kind == 9 && resident) {
        // Prefetching a resident item is a no-op: no frequency bump.
        cache->admit_prefetch(kUser, item);
        EXPECT_TRUE(victims.empty()) << "op " << op;
      } else {
        if (kind == 9) {
          cache->admit_prefetch(kUser, item);
        } else {
          cache->admit_demand(kUser, item);
        }
        if (!resident && ref.size() >= cap) {
          const ItemId expected = ref_victim();
          ASSERT_EQ(victims.size(), 1u) << "op " << op;
          EXPECT_EQ(victims[0], expected) << "op " << op;
          ref.erase(expected);
          ref[item] = RefEntry{1, ++clock};
        } else {
          EXPECT_TRUE(victims.empty()) << "op " << op;
          ++ref[item].freq;  // new items get freq 1, residents bump
          ref[item].touched = ++clock;
        }
      }
      ASSERT_EQ(cache->size(kUser), ref.size()) << "op " << op;
    }
  }
}

/// ValueCache against a map-scan reference.
TEST(CacheDifferential, ValueCacheMatchesMinScanReference) {
  constexpr std::size_t kCap = 8;
  ValueCache cache(kCap);
  std::map<ItemId, double> ref;
  Rng rng(123);
  for (int op = 0; op < 10000; ++op) {
    const ItemId item = rng.next_below(40);
    const double value = rng.next_double();
    const bool resident = ref.count(item) != 0;
    if (resident || ref.size() < kCap) {
      EXPECT_TRUE(cache.insert_valued(item, EntryTag::kTagged, value));
      ref[item] = value;
    } else {
      auto min_it = std::min_element(
          ref.begin(), ref.end(), [](const auto& a, const auto& b) {
            if (a.second != b.second) return a.second < b.second;
            return a.first < b.first;
          });
      if (value < min_it->second) {
        EXPECT_FALSE(cache.insert_valued(item, EntryTag::kTagged, value));
      } else {
        EXPECT_TRUE(cache.insert_valued(item, EntryTag::kTagged, value));
        ref.erase(min_it);
        ref[item] = value;
      }
    }
    ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
    if (!ref.empty()) {
      const double ref_min =
          std::min_element(ref.begin(), ref.end(), [](const auto& a,
                                                      const auto& b) {
            return a.second < b.second;
          })->second;
      EXPECT_DOUBLE_EQ(*cache.min_value(), ref_min) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace specpf
