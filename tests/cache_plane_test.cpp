// Cache-plane differential tests: the slab-backed arena plane must be
// bit-identical to the pre-arena per-user TaggedCache fleet kept in
// tests/reference/ — same access outcomes, residency, sizes, ĥ' estimates,
// and eviction victims (with tags) — across all five eviction policies
// under long random protocol sequences, plus the §4 tag-transition edge
// cases pinned on both.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_plane.hpp"
#include "reference/legacy_planes.hpp"
#include "util/audit.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

using core::EntryTag;
using core::InteractionModel;

constexpr std::size_t kInline = arena::kInlineResidencyCapacity;

constexpr CacheKind kAllKinds[] = {CacheKind::kLru, CacheKind::kLfu,
                                   CacheKind::kFifo, CacheKind::kClock,
                                   CacheKind::kRandom};

struct Eviction {
  std::uint32_t user;
  ItemId item;
  EntryTag tag;
  bool operator==(const Eviction& o) const {
    return user == o.user && item == o.item && tag == o.tag;
  }
};

struct PlaneUnderTest {
  std::unique_ptr<CachePlane> plane;
  std::vector<Eviction> evictions;

  explicit PlaneUnderTest(std::unique_ptr<CachePlane> built)
      : plane(std::move(built)) {
    plane->set_eviction_observer(
        [this](std::uint32_t user, ItemId item, EntryTag tag) {
          evictions.push_back(Eviction{user, item, tag});
        });
  }
};

/// Drives both backends through an identical random §4 protocol sequence
/// and checks every observable after every operation. Capacity selects the
/// arena's residency mode: ≤ kInlineResidencyCapacity takes the per-user
/// block arenas, above it the shared-slab + hash-index arenas.
void run_differential(CacheKind kind, std::size_t capacity,
                      std::uint64_t seed) {
  CachePlaneConfig config;
  config.num_users = 8;
  config.capacity = capacity;
  config.seed = 17;
  PlaneUnderTest arena(make_cache_plane(kind, config));
  PlaneUnderTest legacy(make_legacy_cache_plane(kind, config));

  Rng rng(seed);
  for (int op = 0; op < 30000; ++op) {
    const auto user = static_cast<std::uint32_t>(rng.next_below(8));
    const ItemId item = rng.next_below(capacity * 4);  // keeps evictions hot
    const auto kind_draw = rng.next_below(100);
    if (kind_draw < 55) {
      ASSERT_EQ(arena.plane->access(user, item),
                legacy.plane->access(user, item))
          << "op " << op;
    } else if (kind_draw < 70) {
      arena.plane->admit_demand(user, item);
      legacy.plane->admit_demand(user, item);
    } else if (kind_draw < 88) {
      arena.plane->admit_prefetch(user, item);
      legacy.plane->admit_prefetch(user, item);
    } else {
      arena.plane->admit_prefetch_accessed(user, item);
      legacy.plane->admit_prefetch_accessed(user, item);
    }
    ASSERT_EQ(arena.plane->contains(user, item),
              legacy.plane->contains(user, item))
        << "op " << op;
    ASSERT_EQ(arena.plane->size(user), legacy.plane->size(user))
        << "op " << op;
    ASSERT_EQ(arena.evictions.size(), legacy.evictions.size()) << "op " << op;
  }
  EXPECT_EQ(arena.evictions, legacy.evictions);
  EXPECT_FALSE(arena.evictions.empty());

  for (std::uint32_t u = 0; u < config.num_users; ++u) {
    EXPECT_DOUBLE_EQ(arena.plane->estimate(u, InteractionModel::kModelA),
                     legacy.plane->estimate(u, InteractionModel::kModelA));
    EXPECT_DOUBLE_EQ(arena.plane->estimate(u, InteractionModel::kModelB),
                     legacy.plane->estimate(u, InteractionModel::kModelB));
    EXPECT_EQ(arena.plane->prefetch_inserts(u), legacy.plane->prefetch_inserts(u));
    EXPECT_EQ(arena.plane->prefetch_first_uses(u),
              legacy.plane->prefetch_first_uses(u));
  }
  const CachePlaneTotals ta = arena.plane->totals(InteractionModel::kModelB);
  const CachePlaneTotals tl = legacy.plane->totals(InteractionModel::kModelB);
  EXPECT_DOUBLE_EQ(ta.hprime_sum, tl.hprime_sum);
  EXPECT_EQ(ta.prefetch_inserts, tl.prefetch_inserts);
  EXPECT_EQ(ta.prefetch_first_uses, tl.prefetch_first_uses);
}

class CachePlaneDifferential : public ::testing::TestWithParam<CacheKind> {};

/// Each side of the dispatch runs at its edge too: a per-user block at
/// exactly the ceiling, and the smallest capacity above it. Capacities 1,
/// 4 and 5 are CLOCK's and random's head-only, exactly-full-head and
/// first-overflow-block cases (arena::kHeadFrames is 4).
TEST_P(CachePlaneDifferential, SmallArenaMatchesLegacyOnRandomProtocolOps) {
  static_assert(arena::kHeadFrames == 4);
  for (std::size_t capacity : {std::size_t{1}, std::size_t{4}, std::size_t{5},
                               std::size_t{6}, kInline}) {
    for (std::uint64_t seed : {11ULL, 1111ULL}) {
      run_differential(GetParam(), capacity, seed);
    }
  }
}

TEST_P(CachePlaneDifferential, MappedArenaMatchesLegacyOnRandomProtocolOps) {
  for (std::size_t capacity : {kInline + 1, kInline + 16}) {
    for (std::uint64_t seed : {11ULL, 1111ULL}) {
      run_differential(GetParam(), capacity, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CachePlaneDifferential,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<CacheKind>& info) {
                           return std::string(cache_kind_name(info.param));
                         });

// --- a full block at the ceiling, per-user block vs shared slab ---

/// Drives a per-user-block arena and its slab + hash-index counterpart
/// through one scripted sequence at capacity kInlineResidencyCapacity. Two
/// users fill their blocks to the last slot. Every resident item is probed,
/// the last one after a scan of the whole block, and so is a miss. Lookups
/// then run newest-first: for LFU the first one bumps the head past the
/// whole frequency-1 run. Last, a second block's worth of items is
/// admitted, each one an eviction; the first LFU victim is found by walking
/// every node of the lowest-frequency run.
template <typename Small, typename Slab>
void run_full_block(std::uint64_t seed) {
  constexpr std::uint32_t kUsers = 2;
  Small small(kUsers, kInline, seed);
  Slab slab(kUsers, kInline, seed);
  std::vector<Eviction> small_evictions;
  std::vector<Eviction> slab_evictions;
  const auto item_of = [](std::uint32_t user, std::size_t i) {
    return static_cast<ItemId>(user * 1000 + i);
  };
  const auto admit = [&](std::uint32_t user, ItemId item, EntryTag tag) {
    small.insert(user, item, tag, [&](ItemId victim, EntryTag victim_tag) {
      small_evictions.push_back(Eviction{user, victim, victim_tag});
    });
    slab.insert(user, item, tag, [&](ItemId victim, EntryTag victim_tag) {
      slab_evictions.push_back(Eviction{user, victim, victim_tag});
    });
  };

  for (std::uint32_t user = 0; user < kUsers; ++user) {
    for (std::size_t i = 0; i < kInline; ++i) {
      admit(user, item_of(user, i),
            i % 3 == 0 ? EntryTag::kUntagged : EntryTag::kTagged);
    }
  }
  ASSERT_TRUE(small_evictions.empty());
  ASSERT_TRUE(slab_evictions.empty());
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    ASSERT_EQ(small.size(user), kInline);
    for (std::size_t i = 0; i < kInline; ++i) {
      EXPECT_TRUE(small.contains(user, item_of(user, i))) << "item " << i;
    }
    EXPECT_FALSE(small.contains(user, item_of(user, kInline)));
    EXPECT_FALSE(small.contains(user, item_of(1 - user, 0)));
    for (std::size_t k = 0; k < kInline; k += 3) {
      const ItemId item = item_of(user, kInline - 1 - k);
      ASSERT_EQ(small.lookup(user, item), slab.lookup(user, item))
          << "item " << item;
      if constexpr (requires { small.frequency(user, item); }) {
        EXPECT_EQ(small.frequency(user, item), slab.frequency(user, item))
            << "item " << item;
      }
    }
  }
  for (std::size_t i = kInline; i < 2 * kInline; ++i) {
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      admit(user, item_of(user, i),
            i % 2 == 0 ? EntryTag::kUntagged : EntryTag::kTagged);
    }
    ASSERT_EQ(small_evictions, slab_evictions) << "admission " << i;
  }
  EXPECT_EQ(small_evictions.size(), kUsers * kInline);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    EXPECT_EQ(small.size(user), slab.size(user));
    for (std::size_t i = 0; i < 2 * kInline; ++i) {
      EXPECT_EQ(small.contains(user, item_of(user, i)),
                slab.contains(user, item_of(user, i)))
          << "item " << i;
    }
  }
  AuditReport small_report;
  small.audit(small_report);
  EXPECT_TRUE(small_report.ok()) << small_report.summary();
  AuditReport slab_report;
  slab.audit(slab_report);
  EXPECT_TRUE(slab_report.ok()) << slab_report.summary();
}

TEST(InlineResidencyCeiling, FullBlockMatchesSlabArenaForEveryPolicy) {
  run_full_block<arena::SmallLruArena, arena::LruArena>(5);
  run_full_block<arena::SmallFifoArena, arena::FifoArena>(5);
  run_full_block<arena::SmallLfuArena, arena::LfuArena>(5);
  run_full_block<arena::SmallClockArena, arena::ClockArena>(5);
  run_full_block<arena::SmallRandomArena, arena::RandomArena>(5);
}

// --- frames held by CLOCK and random: heads plus overflow blocks ---

/// Three users at capacity 10 own 4-frame heads from the start. Users that
/// stay within their heads take no overflow block; a user's fifth entry
/// takes one block of 6 frames, and later inserts and evictions take no
/// more. Once every user is full, the arena holds exactly users × capacity
/// frames. Below the head size, the heads are the whole cache.
template <typename Arena>
void expect_held_frames_follow_occupancy() {
  constexpr std::uint32_t kUsers = 3;
  constexpr std::size_t kCapacity = 10;
  const auto no_eviction = [](ItemId, EntryTag) {};
  Arena a(kUsers, kCapacity, /*seed=*/3);
  EXPECT_EQ(a.held_frames(), kUsers * arena::kHeadFrames);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    for (ItemId item = 0; item < arena::kHeadFrames; ++item) {
      a.insert(user, item, EntryTag::kTagged, no_eviction);
      a.insert(user, item, EntryTag::kUntagged, no_eviction);  // resident
    }
  }
  EXPECT_EQ(a.held_frames(), kUsers * arena::kHeadFrames);

  a.insert(1, arena::kHeadFrames, EntryTag::kTagged, no_eviction);
  const std::uint64_t one_block = kUsers * arena::kHeadFrames +
                                  (kCapacity - arena::kHeadFrames);
  EXPECT_EQ(a.held_frames(), one_block);
  std::size_t evictions = 0;
  for (ItemId item = arena::kHeadFrames + 1; item < 4 * kCapacity; ++item) {
    a.insert(1, item, EntryTag::kTagged,
             [&](ItemId, EntryTag) { ++evictions; });
  }
  EXPECT_EQ(evictions, 3 * kCapacity);
  EXPECT_EQ(a.held_frames(), one_block);

  for (const std::uint32_t user : {0u, 2u}) {
    for (ItemId item = arena::kHeadFrames; item < 2 * kCapacity; ++item) {
      a.insert(user, item, EntryTag::kTagged, no_eviction);
    }
  }
  EXPECT_EQ(a.held_frames(), kUsers * kCapacity);
  AuditReport report;
  a.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();

  constexpr std::size_t kBelowHead = arena::kHeadFrames - 1;
  Arena small(kUsers, kBelowHead, /*seed=*/3);
  for (ItemId item = 0; item < 3 * kBelowHead; ++item) {
    small.insert(0, item, EntryTag::kTagged, no_eviction);
  }
  EXPECT_EQ(small.size(0), kBelowHead);
  EXPECT_EQ(small.held_frames(), kUsers * kBelowHead);
}

TEST(FrameBlocks, HeldFramesCountHeadsPlusOverflowBlocksHandedOut) {
  expect_held_frames_follow_occupancy<arena::SmallClockArena>();
  expect_held_frames_follow_occupancy<arena::ClockArena>();
  expect_held_frames_follow_occupancy<arena::SmallRandomArena>();
  expect_held_frames_follow_occupancy<arena::RandomArena>();
}

// --- held bytes: nodes or frames plus per-user views ---

/// Fills user 0 past its capacity and user 1 to two entries; users 2 and
/// up stay empty.
template <typename Arena>
void populate_two_users(Arena& a, std::size_t capacity) {
  const auto ignore = [](ItemId, EntryTag) {};
  for (ItemId item = 0; item < 2 * capacity; ++item) {
    a.insert(0, item, EntryTag::kTagged, ignore);
  }
  for (ItemId item = 0; item < 2; ++item) {
    a.insert(1, item, EntryTag::kUntagged, ignore);
  }
}

/// The list and LFU blocks are fixed, so what they hold does not follow
/// occupancy: 8-byte list nodes and 12-byte LFU nodes for every slot of
/// every block, plus a 3-byte view a user.
TEST(HeldBytes, SmallListAndLfuArenasHoldWholeBlocksPlusViews) {
  constexpr std::uint64_t kUsers = 5;
  arena::SmallLruArena lru(kUsers, 8, /*seed=*/1);
  arena::SmallFifoArena fifo(kUsers, 8, /*seed=*/1);
  arena::SmallLfuArena lfu(kUsers, kInline, /*seed=*/1);
  EXPECT_EQ(lru.held_bytes(), kUsers * 8 * 8 + kUsers * 3);
  EXPECT_EQ(fifo.held_bytes(), kUsers * 8 * 8 + kUsers * 3);
  EXPECT_EQ(lfu.held_bytes(), kUsers * kInline * 12 + kUsers * 3);
  populate_two_users(lru, 8);
  populate_two_users(fifo, 8);
  populate_two_users(lfu, kInline);
  EXPECT_EQ(lru.held_bytes(), kUsers * 8 * 8 + kUsers * 3);
  EXPECT_EQ(fifo.held_bytes(), kUsers * 8 * 8 + kUsers * 3);
  EXPECT_EQ(lfu.held_bytes(), kUsers * kInline * 12 + kUsers * 3);
}

/// CLOCK and random hold 5 bytes a frame held (every head, plus the
/// overflow blocks handed out) and an 8-byte view a user; random also
/// holds each user's RNG stream.
TEST(HeldBytes, SmallClockAndRandomArenasHoldFramesPlusViews) {
  constexpr std::uint64_t kUsers = 5;
  constexpr std::uint64_t kCapacity = 16;
  constexpr std::uint64_t kHeads = kUsers * arena::kHeadFrames;
  constexpr std::uint64_t kBlock = kCapacity - arena::kHeadFrames;
  arena::SmallClockArena clock(kUsers, kCapacity, /*seed=*/1);
  arena::SmallRandomArena random(kUsers, kCapacity, /*seed=*/1);
  const std::uint64_t rngs = kUsers * sizeof(Rng);
  EXPECT_EQ(clock.held_bytes(), kHeads * 5 + kUsers * 8);
  EXPECT_EQ(random.held_bytes(), kHeads * 5 + kUsers * 8 + rngs);
  populate_two_users(clock, kCapacity);  // user 0 takes one overflow block
  populate_two_users(random, kCapacity);
  EXPECT_EQ(clock.held_bytes(), (kHeads + kBlock) * 5 + kUsers * 8);
  EXPECT_EQ(random.held_bytes(), (kHeads + kBlock) * 5 + kUsers * 8 + rngs);
  EXPECT_EQ(clock.held_bytes(), clock.held_frames() * 5 + kUsers * 8);
}

/// The plane adds the 16-byte §4 state of every user to its arena's bytes.
TEST(HeldBytes, PlaneAddsSixteenBytesOfProtocolStateAUser) {
  CachePlaneConfig config;
  config.num_users = 7;
  config.capacity = 8;
  const std::uint64_t users = config.num_users;
  auto lru = make_cache_plane(CacheKind::kLru, config);
  EXPECT_EQ(lru->held_bytes(), users * (8 * 8 + 3) + users * 16);
  for (ItemId item = 0; item < 20; ++item) lru->admit_demand(3, item);
  EXPECT_EQ(lru->held_bytes(), users * (8 * 8 + 3) + users * 16);
  auto clock = make_cache_plane(CacheKind::kClock, config);
  EXPECT_EQ(clock->held_bytes(),
            users * arena::kHeadFrames * 5 + users * 8 + users * 16);
  // Indexed mode also counts the slab and the residency index, which grow
  // with the residents.
  config.capacity = kInline + 1;
  auto slab = make_cache_plane(CacheKind::kLru, config);
  const std::uint64_t empty = slab->held_bytes();
  for (ItemId item = 0; item < 20; ++item) slab->admit_demand(3, item);
  EXPECT_GT(slab->held_bytes(), empty);
}

TEST(CapacityBound, CapacityPastU32IsRejectedNotTruncated) {
  // The arenas store capacity in 32 bits, where 2^32 would narrow to a
  // capacity-0 cache: every policy must refuse it when the plane is built.
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = arena::kMaxCapacity + 1;
  for (const CacheKind kind : kAllKinds) {
    EXPECT_THROW(make_cache_plane(kind, config), ContractViolation)
        << cache_kind_name(kind);
  }
  // The list and LFU slabs grow with residents, so the largest capacity
  // itself builds.
  config.capacity = arena::kMaxCapacity;
  for (const CacheKind kind :
       {CacheKind::kLru, CacheKind::kFifo, CacheKind::kLfu}) {
    EXPECT_NO_THROW(make_cache_plane(kind, config)) << cache_kind_name(kind);
  }
}

// --- §4 tag-transition edge cases, pinned identically on both backends ---

class TagTransition : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::uint32_t kUser = 0;

  static std::unique_ptr<CachePlane> make(CacheKind kind,
                                          const CachePlaneConfig& config) {
    return GetParam() ? make_legacy_cache_plane(kind, config)
                      : make_cache_plane(kind, config);
  }
};

TEST_P(TagTransition, AdmitPrefetchAccessedOnResidentItemRetagsAndCounts) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 4;
  auto plane = make(CacheKind::kLru, config);

  plane->admit_prefetch(kUser, 1);  // resident, untagged
  EXPECT_EQ(plane->prefetch_inserts(kUser), 1u);
  // An in-flight prefetch of the same item was claimed by a request: the
  // admission retags the resident entry and counts another used prefetch.
  plane->admit_prefetch_accessed(kUser, 1);
  EXPECT_EQ(plane->size(kUser), 1u);
  EXPECT_EQ(plane->prefetch_inserts(kUser), 2u);
  EXPECT_EQ(plane->prefetch_first_uses(kUser), 1u);
  // The entry is now tagged: the next access is a would-have-hit.
  EXPECT_EQ(plane->access(kUser, 1), AccessOutcome::kHitTagged);
}

TEST_P(TagTransition, DemandReinsertOverUntaggedEntryUpgradesTag) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 4;
  auto plane = make(CacheKind::kLru, config);

  plane->admit_prefetch(kUser, 7);  // untagged
  plane->admit_demand(kUser, 7);    // re-insert upgrades to tagged, no growth
  EXPECT_EQ(plane->size(kUser), 1u);
  EXPECT_EQ(plane->access(kUser, 7), AccessOutcome::kHitTagged);
  // Re-prefetch of the (now tagged) resident item must not downgrade it.
  plane->admit_prefetch(kUser, 7);
  EXPECT_EQ(plane->prefetch_inserts(kUser), 1u);
  EXPECT_EQ(plane->access(kUser, 7), AccessOutcome::kHitTagged);
}

TEST_P(TagTransition, ClockSecondChanceEvictionReportsVictimTagFaithfully) {
  CachePlaneConfig config;
  config.num_users = 1;
  config.capacity = 3;
  auto plane = make(CacheKind::kClock, config);
  std::vector<Eviction> evictions;
  plane->set_eviction_observer(
      [&evictions](std::uint32_t user, ItemId item, EntryTag tag) {
        evictions.push_back(Eviction{user, item, tag});
      });

  plane->admit_prefetch(kUser, 1);  // frame 0, untagged, referenced
  plane->admit_demand(kUser, 2);    // frame 1, tagged
  plane->admit_demand(kUser, 3);    // frame 2, tagged
  // All reference bits set: the sweep clears every bit on the first pass
  // and takes frame 0 on the second — evicting the untagged prefetch.
  plane->admit_demand(kUser, 4);
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0], (Eviction{kUser, 1, EntryTag::kUntagged}));

  // Touch 2 so its second chance spares it; the next insert must evict the
  // unreferenced 3 and report its (tagged) tag, not the hand's first stop.
  EXPECT_EQ(plane->access(kUser, 2), AccessOutcome::kHitTagged);
  plane->admit_demand(kUser, 5);
  ASSERT_EQ(evictions.size(), 2u);
  EXPECT_EQ(evictions[1], (Eviction{kUser, 3, EntryTag::kTagged}));
  EXPECT_TRUE(plane->contains(kUser, 2));
}

INSTANTIATE_TEST_SUITE_P(Backends, TagTransition, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "legacy" : "arena";
                         });

// --- the RSS probe the memory benchmarks rely on ---

TEST(MemoryUsage, ProbesResidentSetOnLinux) {
  const MemoryUsage usage = read_memory_usage();
#if defined(__linux__)
  EXPECT_GT(usage.resident_bytes, 0u);
  EXPECT_GE(usage.peak_resident_bytes, usage.resident_bytes);
  // Touch a real allocation and confirm the probe can only grow.
  std::vector<char> block(16 << 20, 1);
  const MemoryUsage after = read_memory_usage();
  EXPECT_GE(after.peak_resident_bytes, usage.peak_resident_bytes);
  EXPECT_GT(block[8 << 20], 0);
#else
  (void)usage;
#endif
}

}  // namespace
}  // namespace specpf
