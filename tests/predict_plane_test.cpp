// Differential + unit tests for the slab-backed SoA predictor plane
// (predict/predictor_plane.hpp, predict/context_arena.hpp):
//  1. ContextArena bookkeeping matches a reference map-of-maps under random
//     load, the quantized-counter edge cases (saturation, halving) do
//     the exact ceil(c/2) aging the header promises, the successor
//     blocks grow through size classes, reuse outgrown blocks and halve in
//     place after a move, blocks at, below and above kScanCapacity (scanned
//     or indexed) find every successor at its slot, a block grown across
//     that threshold halves exactly on both sides of it, and item, child
//     and root contexts are created once, on first need, with child slots
//     that survive moves and halving.
//  2. HistoryRing preserves order across wraparound.
//  3. Fuzz differential: every arena plane predicts bit-identically to its
//     pre-arena virtual Predictor table (tests/reference/) across orders x
//     user counts x candidate limits — exact double equality, not
//     approximate. A cycling limit drives RankedPrefix stride growth.
//  4. Past counter saturation, where the reference tables no longer apply,
//     Markov and frequency still predict exactly the brute-force ranking
//     of a twin ContextArena fed the same observations, and PPM and the
//     dependency graph exactly that of ordered-map models that age their
//     counts the same way.
//  5. PPM's context trie, at orders 1 to 6 over 64 users with session
//     restarts, predicts what the literal-history model does and holds as
//     many contexts as the hashed reference table after every step; Markov
//     names a context only once an access follows its item.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "predict/context_arena.hpp"
#include "predict/predictor_plane.hpp"
#include "reference/legacy_planes.hpp"
#include "reference/ppm.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

using core::Candidate;

/// The item context of `key`, interning the key as an item first.
ContextArena::CtxId item_ctx(ContextArena& arena, std::uint64_t key) {
  return arena.item_context(arena.intern_item(key));
}

TEST(ContextArena, CountsMatchReferenceMap) {
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 17;
    const std::uint64_t item = rng.next_u64() % 40;
    arena.add(item_ctx(arena, ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx =
        arena.find_item_context(arena.intern_item(ctx_key));
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    EXPECT_EQ(arena.distinct(ctx), successors.size());
    std::uint64_t want_total = 0;
    for (const auto& [item, count] : successors) want_total += count;
    EXPECT_EQ(arena.total(ctx), want_total);
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.halvings(), 0u);  // counts stayed far below saturation
}

TEST(ContextArena, NamesAreCreatedOnceOnFirstNeed) {
  ContextArena arena(/*child_column=*/true);
  const std::uint32_t item = arena.intern_item(123);
  EXPECT_EQ(arena.find_item_context(item), ContextArena::kNoCtx);
  EXPECT_EQ(arena.context_count(), 0u);
  const ContextArena::CtxId ctx = arena.item_context(item);
  EXPECT_EQ(arena.item_context(item), ctx);
  EXPECT_EQ(arena.find_item_context(item), ctx);
  EXPECT_EQ(arena.total(ctx), 0u);
  EXPECT_EQ(arena.distinct(ctx), 0u);

  const ContextArena::Added added = arena.add(ctx, arena.intern_item(7));
  EXPECT_EQ(added.slot, 0u);
  EXPECT_EQ(added.count, 1u);
  EXPECT_EQ(arena.find_child(ctx, added.slot), ContextArena::kNoCtx);
  const ContextArena::CtxId child = arena.child_context(ctx, added.slot);
  EXPECT_NE(child, ctx);
  EXPECT_EQ(arena.child_context(ctx, added.slot), child);
  EXPECT_EQ(arena.find_child(ctx, added.slot), child);

  const ContextArena::CtxId root = arena.root_context();
  EXPECT_EQ(arena.root_context(), root);
  EXPECT_EQ(arena.context_count(), 3u);
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ContextArena, ChildSlotsSurviveGrowthAndHalving) {
  // A parent with a child at every successor slot is moved through
  // classes 0..4 and then halved; each slot must still name its own child,
  // with the successor it was created for.
  ContextArena arena(/*child_column=*/true);
  const ContextArena::CtxId parent = item_ctx(arena, 1000);
  std::vector<ContextArena::CtxId> children;
  for (std::uint64_t item = 0; item < 20; ++item) {
    const ContextArena::Added added =
        arena.add(parent, arena.intern_item(item));
    ASSERT_EQ(added.slot, item);
    children.push_back(arena.child_context(parent, added.slot));
    // Another context grows in between, so blocks are reused out of order.
    arena.add(item_ctx(arena, 2000), arena.intern_item(item));
  }
  const std::uint32_t hot = arena.intern_item(5);
  while (arena.halvings() == 0) {
    EXPECT_EQ(arena.add(parent, hot).slot, 5u);
  }
  for (std::uint32_t slot = 0; slot < 20; ++slot) {
    EXPECT_EQ(arena.find_child(parent, slot), children[slot]) << slot;
    EXPECT_EQ(arena.item_value(arena.successor_id(parent, slot)), slot);
  }
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ContextArena, SaturationHalvesEveryCounterRoundingUp) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  const std::uint32_t a = arena.intern_item(100);
  const std::uint32_t b = arena.intern_item(200);
  for (int i = 0; i < 3; ++i) arena.add(ctx, b);
  for (std::uint32_t i = 0; i < ContextArena::kCounterMax; ++i) {
    arena.add(ctx, a);
  }
  EXPECT_EQ(arena.halvings(), 0u);
  EXPECT_EQ(arena.total(ctx), std::uint64_t{ContextArena::kCounterMax} + 3);

  // The add that would overflow `a` ages the whole context first:
  // a: 65535 -> 32768 (then the pending increment lands: 32769),
  // b: 3 -> 2, and the total is recomputed from the aged counts.
  EXPECT_EQ(arena.add(ctx, a).count, 32769u);
  EXPECT_EQ(arena.halvings(), 1u);
  std::map<std::uint64_t, std::uint64_t> got;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    got[item] = c;
  });
  EXPECT_EQ(got[100], 32769u);
  EXPECT_EQ(got[200], 2u);
  EXPECT_EQ(arena.total(ctx), 32771u);
  EXPECT_EQ(arena.distinct(ctx), 2u);  // no successor is ever forgotten
}

TEST(ContextArena, HalvingNeverZeroesACount) {
  // A count of 1 halves to ceil(1/2) = 1, so even rare successors survive
  // arbitrarily many agings.
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  const std::uint32_t rare = arena.intern_item(999);
  const std::uint32_t hot = arena.intern_item(111);
  arena.add(ctx, rare);
  // Two full saturation cycles on the hot item.
  for (int cycle = 0; cycle < 2; ++cycle) {
    while (arena.halvings() == static_cast<std::uint64_t>(cycle)) {
      arena.add(ctx, hot);
    }
  }
  EXPECT_EQ(arena.halvings(), 2u);
  std::uint64_t rare_count = 0;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    if (item == 999) rare_count = c;
    EXPECT_GE(c, 1u);
  });
  EXPECT_EQ(rare_count, 1u);
}

TEST(ContextArena, SlabGrowthStress) {
  // Enough volume to force several growth doublings of every slab and
  // index; the arena must stay exactly consistent with the reference.
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t ctx_key = rng.next_u64() % 4096;
    const std::uint64_t item = rng.next_u64() % 2048;
    arena.add(item_ctx(arena, ctx_key), arena.intern_item(item));
    ++reference[ctx_key][item];
  }
  ASSERT_EQ(arena.context_count(), reference.size());
  EXPECT_EQ(arena.item_count(), 4096u);  // the context keys, items among them
  std::size_t total_successors = 0;
  for (const auto& [ctx_key, successors] : reference) {
    const ContextArena::CtxId ctx =
        arena.find_item_context(arena.intern_item(ctx_key));
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    total_successors += successors.size();
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, successors);
  }
  EXPECT_EQ(arena.successor_count(), total_successors);
}

TEST(ContextArena, GrowthAcrossSizeClassesKeepsInsertionOrder) {
  // One context taken through classes 0..6: every full block moves into
  // one twice its size, appended to the pool since nothing else frees a
  // block. Counts survive every move and visits stay in insertion order.
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  std::vector<std::uint64_t> inserted;
  for (std::uint64_t n = 1; n <= 100; ++n) {
    const std::uint64_t item = 1000 - 7 * n;  // not sorted by value or id
    inserted.push_back(item);
    for (std::uint64_t rep = 0; rep < n % 3 + 1; ++rep) {
      arena.add(ctx, arena.intern_item(item));
    }
    // Classes 0..k appended one after another: 2 * bit_ceil(n) - 1 slots.
    ASSERT_EQ(arena.pool_size(), 2 * std::bit_ceil(n) - 1) << n;
    ASSERT_EQ(arena.distinct(ctx), n);
  }
  std::vector<std::uint64_t> visited;
  std::uint64_t n = 0;
  arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
    ++n;
    visited.push_back(item);
    EXPECT_EQ(c, n % 3 + 1) << item;
  });
  EXPECT_EQ(visited, inserted);
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ContextArena, OutgrownBlocksAreReused) {
  // Context a grows 1 -> 2 -> 4 -> 8 and frees one block of each class
  // 0..2; context b then grows into exactly those blocks, so the pool does
  // not move until b needs a class-3 block of its own.
  ContextArena arena;
  const ContextArena::CtxId a = item_ctx(arena, 1);
  const ContextArena::CtxId b = item_ctx(arena, 2);
  for (std::uint64_t item = 0; item < 8; ++item) {
    arena.add(a, arena.intern_item(item));
  }
  EXPECT_EQ(arena.pool_size(), 15u);  // 1 + 2 + 4 free, 8 live
  for (std::uint64_t item = 0; item < 4; ++item) {
    arena.add(b, arena.intern_item(item + 50));
    EXPECT_EQ(arena.pool_size(), 15u) << item;
  }
  arena.add(b, arena.intern_item(54));
  EXPECT_EQ(arena.pool_size(), 23u);  // class 3 had no free block
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  std::map<std::uint64_t, std::uint64_t> got;
  arena.for_each_successor(b, [&](std::uint64_t item, std::uint16_t c) {
    got[item] = c;
  });
  EXPECT_EQ(got, (std::map<std::uint64_t, std::uint64_t>{
                     {50, 1}, {51, 1}, {52, 1}, {53, 1}, {54, 1}}));
}

TEST(ContextArena, HalvingInsideARelocatedBlock) {
  // a's block moves three times, and b moves into the blocks a left
  // behind; saturating one of a's counters must age a's current block
  // only — b, sitting in a's old blocks, keeps its counts.
  ContextArena arena;
  const ContextArena::CtxId a = item_ctx(arena, 1);
  const ContextArena::CtxId b = item_ctx(arena, 2);
  const std::uint32_t hot = arena.intern_item(100);
  for (std::uint64_t item = 0; item < 4; ++item) {
    for (std::uint64_t rep = 0; rep <= item; ++rep) {
      arena.add(a, arena.intern_item(item));
    }
  }
  arena.add(a, hot);  // fifth successor: a moves into a class-3 block
  for (std::uint64_t item = 0; item < 3; ++item) {
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      arena.add(b, arena.intern_item(item + 50));
    }
  }
  ASSERT_EQ(arena.pool_size(), 15u);  // b lives in a's outgrown blocks
  while (arena.halvings() == 0) arena.add(a, hot);
  EXPECT_EQ(arena.halvings(), 1u);

  std::map<std::uint64_t, std::uint64_t> got_a, got_b;
  arena.for_each_successor(a, [&](std::uint64_t item, std::uint16_t c) {
    got_a[item] = c;
  });
  arena.for_each_successor(b, [&](std::uint64_t item, std::uint16_t c) {
    got_b[item] = c;
  });
  // ceil(c/2) of 1, 2, 3, 4, and the hot counter 65535 -> 32768 + 1.
  EXPECT_EQ(got_a, (std::map<std::uint64_t, std::uint64_t>{
                       {0, 1}, {1, 1}, {2, 2}, {3, 2}, {100, 32769}}));
  EXPECT_EQ(arena.total(a), 1u + 1 + 2 + 2 + 32769);
  EXPECT_EQ(got_b, (std::map<std::uint64_t, std::uint64_t>{
                       {50, 5}, {51, 5}, {52, 5}}));
  EXPECT_EQ(arena.total(b), 15u);
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ContextArena, BlocksAroundTheScanThresholdMatchReference) {
  // One context per block size around kScanCapacity: at and below it the
  // block is scanned, above it its successors are indexed. Every repeat
  // must find its successor at the slot it was first counted at.
  constexpr std::uint32_t kScan = ContextArena::kScanCapacity;
  const std::vector<std::uint32_t> sizes = {
      1, kScan / 2, kScan - 1, kScan, kScan + 1, 2 * kScan, 2 * kScan + 1};
  ContextArena arena;
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>> reference;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> slots;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t which = rng.next_u64() % sizes.size();
    const std::uint64_t item = 1000 + rng.next_u64() % sizes[which];
    const ContextArena::Added added =
        arena.add(item_ctx(arena, which), arena.intern_item(item));
    const auto [slot, fresh] = slots.try_emplace({which, item}, added.slot);
    ASSERT_EQ(added.slot, slot->second) << which << " " << item;
    ASSERT_EQ(added.count, ++reference[which][item]) << which << " " << item;
  }
  std::size_t successors = 0;
  for (std::uint64_t which = 0; which < sizes.size(); ++which) {
    const ContextArena::CtxId ctx =
        arena.find_item_context(arena.intern_item(which));
    ASSERT_NE(ctx, ContextArena::kNoCtx);
    EXPECT_EQ(arena.distinct(ctx), sizes[which]) << which;
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, reference[which]) << which;
    successors += sizes[which];
  }
  EXPECT_EQ(arena.successor_count(), successors);
  AuditReport report;
  arena.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ContextArena, GrowsAcrossTheScanThresholdAndHalvesOnBothSides) {
  // A block filled to exactly kScanCapacity is halved while scanned, then
  // grows past the threshold (indexing its successors) and is halved
  // again while indexed. A reference map ages its counts the same way.
  constexpr std::uint32_t kScan = ContextArena::kScanCapacity;
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  std::map<std::uint64_t, std::uint64_t> reference;
  auto add = [&](std::uint64_t item) {
    const auto it = reference.find(item);
    if (it != reference.end() && it->second == ContextArena::kCounterMax) {
      for (auto& [succ, c] : reference) c = (c + 1) / 2;
    }
    ++reference[item];
    arena.add(ctx, arena.intern_item(item));
  };
  auto expect_matches = [&](const char* when) {
    std::map<std::uint64_t, std::uint64_t> got;
    arena.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      got[item] = c;
    });
    EXPECT_EQ(got, reference) << when;
    std::uint64_t total = 0;
    for (const auto& [item, c] : reference) total += c;
    EXPECT_EQ(arena.total(ctx), total) << when;
    AuditReport report;
    arena.audit(report);
    EXPECT_TRUE(report.ok()) << when << ": " << report.summary();
  };

  for (std::uint64_t item = 0; item < kScan; ++item) {
    for (std::uint64_t rep = 0; rep <= item; ++rep) add(item);
  }
  ASSERT_EQ(arena.distinct(ctx), kScan);
  while (arena.halvings() == 0) add(0);
  ASSERT_EQ(arena.distinct(ctx), kScan);
  expect_matches("halved while scanned");

  for (std::uint64_t item = kScan; item <= 2 * kScan; ++item) add(item);
  ASSERT_EQ(arena.distinct(ctx), 2 * kScan + 1);
  expect_matches("grown past the scan");
  while (arena.halvings() == 1) add(kScan + 3);
  expect_matches("halved while indexed");

  // Neither growth nor halving moved a successor off its first slot.
  for (std::uint32_t slot = 0; slot < arena.distinct(ctx); ++slot) {
    EXPECT_EQ(arena.item_value(arena.successor_id(ctx, slot)), slot);
  }
}

TEST(HistoryRing, PreservesOrderAcrossWraparound) {
  HistoryRing ring(2, 4);
  EXPECT_EQ(ring.size(0), 0u);
  for (std::uint64_t v = 1; v <= 6; ++v) ring.push(0, v * 10);
  ring.push(1, 7);  // the other user's ring is independent
  ASSERT_EQ(ring.size(0), 4u);
  EXPECT_EQ(ring.at(0, 0), 30u);  // oldest surviving entry
  EXPECT_EQ(ring.at(0, 1), 40u);
  EXPECT_EQ(ring.at(0, 2), 50u);
  EXPECT_EQ(ring.at(0, 3), 60u);
  EXPECT_EQ(ring.newest(0), 60u);
  ASSERT_EQ(ring.size(1), 1u);
  EXPECT_EQ(ring.newest(1), 7u);
}

// --- plane vs legacy fuzz differential --------------------------------------

void expect_same_candidates(const std::vector<Candidate>& got,
                            const std::vector<Candidate>& want,
                            const char* what, std::size_t event) {
  ASSERT_EQ(got.size(), want.size()) << what << " event " << event;
  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].item, want[c].item)
        << what << " event " << event << " rank " << c;
    ASSERT_EQ(got[c].probability, want[c].probability)
        << what << " event " << event << " rank " << c;
  }
}

/// Drives the same random stream through both backends, comparing
/// predict_into output exactly (same items, bit-identical probabilities)
/// after every observation. Event i asks for limits[i % limits.size()]
/// candidates, so a cycling list grows a plane's ranked prefix mid-run.
void expect_bit_identical(PredictorKind kind, const PredictorPlaneConfig& cfg,
                          const std::vector<std::size_t>& limits,
                          std::uint64_t seed, std::size_t events,
                          std::uint64_t item_space) {
  auto plane = make_predictor_plane(kind, cfg);
  auto legacy = make_legacy_predictor_plane(kind, cfg);
  Rng rng(seed);
  std::vector<Candidate> got, want;
  for (std::size_t i = 0; i < events; ++i) {
    const UserId user = static_cast<UserId>(rng.next_u64() % cfg.num_users);
    const std::uint64_t item = rng.next_u64() % item_space;
    const std::size_t limit = limits[i % limits.size()];
    plane->observe(user, item);
    legacy->observe(user, item);
    plane->predict_into(user, limit, got);
    legacy->predict_into(user, limit, want);
    expect_same_candidates(got, want, predictor_kind_name(kind), i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The differential only holds below counter saturation — assert the fuzz
  // volume never crossed it, so a future tweak can't quietly void the test.
  EXPECT_EQ(plane->counter_halvings(), 0u);
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PredictPlaneDifferential, FrequencyMatchesLegacy) {
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}, std::size_t{64}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 3;
    expect_bit_identical(PredictorKind::kFrequency, cfg, {limit}, 21, 4000, 50);
  }
}

TEST(PredictPlaneDifferential, MarkovMatchesLegacy) {
  for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}, std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = users;
      expect_bit_identical(PredictorKind::kMarkov, cfg, {limit}, 22, 4000, 40);
    }
  }
}

TEST(PredictPlaneDifferential, CyclingLimitGrowsRankedPrefixExactly) {
  // Limits that rise, fall and rise again: every growth rebuilds the
  // prefixes mid-stream, and the smaller limits must read a prefix of the
  // larger stride. Frequency has one context of up to 50 successors;
  // Markov's 40 contexts fill up gradually, so growth keeps recurring.
  const std::vector<std::size_t> cycle = {1, 4, 2, 8, 64};
  PredictorPlaneConfig cfg;
  cfg.num_users = 3;
  expect_bit_identical(PredictorKind::kFrequency, cfg, cycle, 31, 4000, 50);
  for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
    cfg.num_users = users;
    expect_bit_identical(PredictorKind::kMarkov, cfg, cycle, 32, 4000, 40);
  }
}

TEST(PredictPlaneDifferential, PpmMatchesLegacyAcrossOrders) {
  for (const std::size_t order : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    for (const std::size_t users : {std::size_t{1}, std::size_t{5}}) {
      for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}, std::size_t{64}}) {
        PredictorPlaneConfig cfg;
        cfg.num_users = users;
        cfg.ppm_order = order;
        expect_bit_identical(PredictorKind::kPpm, cfg, {limit},
                             100 + order, 3000, 30);
      }
    }
  }
}

TEST(PredictPlaneDifferential, DependencyGraphMatchesLegacy) {
  for (const std::size_t lookahead : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{8},
                                    std::size_t{64}}) {
      PredictorPlaneConfig cfg;
      cfg.num_users = 5;
      cfg.depgraph_lookahead = lookahead;
      expect_bit_identical(PredictorKind::kDependencyGraph, cfg, {limit},
                           200 + lookahead, 3000, 30);
    }
  }
}

TEST(PredictPlaneDifferential, OracleMatchesLegacy) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 64;
  gcfg.out_degree = 4;
  const SessionGraph graph(gcfg, 17);
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 4;
    cfg.graph = &graph;
    expect_bit_identical(PredictorKind::kOracle, cfg, {limit}, 24, 2000, 64);
  }
}

TEST(PredictPlane, MarkovSurvivesCounterSaturation) {
  // Past 65535 repetitions of one transition the plane diverges from the
  // (unbounded-counter) legacy table by design; it must keep producing the
  // same *distribution* with bounded counters.
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
  plane->observe(0, 1);
  for (int i = 0; i < 70000; ++i) {
    plane->observe(0, 2);
    plane->observe(0, 1);
  }
  EXPECT_GE(plane->counter_halvings(), 1u);
  const auto after = plane->predict(0, 8);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].item, 2u);
  EXPECT_EQ(after[0].probability, 1.0);
}

// --- past saturation: brute force over a twin arena -------------------------

/// Mirrors a Markov or frequency plane's table in a test-side ContextArena
/// fed the same adds (the arena is deterministic, so it halves at the same
/// moments) and ranks a context by sorting its whole chain: the ground
/// truth once counts have aged, where the reference tables never halve.
class TwinArena {
 public:
  TwinArena(PredictorKind kind, std::size_t users)
      : kind_(kind), last_(users, ContextArena::kNoItem) {
    if (kind_ == PredictorKind::kFrequency) root_ = arena_.root_context();
  }

  void observe(UserId user, std::uint64_t item) {
    const std::uint32_t id = arena_.intern_item(item);
    if (kind_ == PredictorKind::kFrequency) {
      arena_.add(root_, id);
    } else if (last_[user] != ContextArena::kNoItem) {
      arena_.add(arena_.item_context(last_[user]), id);
    }
    last_[user] = id;
  }

  std::vector<Candidate> predict(UserId user, std::size_t k) const {
    std::vector<Candidate> out;
    const ContextArena::CtxId ctx =
        kind_ == PredictorKind::kFrequency ? root_
        : last_[user] == ContextArena::kNoItem
            ? ContextArena::kNoCtx
            : arena_.find_item_context(last_[user]);
    if (ctx == ContextArena::kNoCtx) return out;
    const double total = static_cast<double>(arena_.total(ctx));
    arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      out.push_back(Candidate{item, static_cast<double>(c) / total});
    });
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.item < b.item;
              });
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::uint64_t halvings() const { return arena_.halvings(); }

 private:
  PredictorKind kind_;
  ContextArena arena_;
  ContextArena::CtxId root_ = ContextArena::kNoCtx;
  std::vector<std::uint32_t> last_;  ///< item ids, kNoItem before any
};

/// Feeds `stream` to a plane and its twin, comparing predict_into against
/// the brute-force ranking after every observation; returns the halvings.
std::uint64_t expect_matches_twin(
    PredictorKind kind, std::size_t users,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream,
    const std::vector<std::size_t>& limits) {
  PredictorPlaneConfig cfg;
  cfg.num_users = users;
  auto plane = make_predictor_plane(kind, cfg);
  TwinArena twin(kind, users);
  std::vector<Candidate> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [user, item] = stream[i];
    plane->observe(user, item);
    twin.observe(user, item);
    const std::size_t limit = limits[i % limits.size()];
    plane->predict_into(user, limit, got);
    expect_same_candidates(got, twin.predict(user, limit),
                           predictor_kind_name(kind), i);
    if (::testing::Test::HasFatalFailure()) return 0;
  }
  EXPECT_EQ(plane->counter_halvings(), twin.halvings());
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  return plane->counter_halvings();
}

TEST(PredictPlaneSaturation, HalvingTieReordersTopKExactly) {
  // Item 50 seen 4 times ranks ahead of item 10 seen 3 times, so a top-2
  // is [hot, 50]. Halving ages them to ceil(4/2) = ceil(3/2) = 2, and the
  // tie now breaks by item: the top-2 must become [hot, 10] — an item
  // that was outside the ranked prefix before the halving.
  for (const PredictorKind kind :
       {PredictorKind::kMarkov, PredictorKind::kFrequency}) {
    // Markov: user 0 returns to context 1 before each successor.
    std::vector<std::pair<UserId, std::uint64_t>> stream;
    auto follow = [&](std::uint64_t item) {
      if (kind == PredictorKind::kMarkov) stream.push_back({0, 1});
      stream.push_back({0, item});
    };
    for (int i = 0; i < 4; ++i) follow(50);
    for (int i = 0; i < 3; ++i) follow(10);
    for (std::uint32_t i = 0; i <= ContextArena::kCounterMax; ++i) follow(7);
    EXPECT_GE(expect_matches_twin(kind, 1, stream, {2}), 1u)
        << predictor_kind_name(kind);

    PredictorPlaneConfig cfg;
    auto plane = make_predictor_plane(kind, cfg);
    for (const auto& [user, item] : stream) plane->observe(user, item);
    if (kind == PredictorKind::kMarkov) plane->observe(0, 1);
    const auto top = plane->predict(0, 2);
    ASSERT_EQ(top.size(), 2u) << predictor_kind_name(kind);
    EXPECT_EQ(top[0].item, 7u);
    EXPECT_EQ(top[1].item, 10u) << predictor_kind_name(kind);
  }
}

TEST(PredictPlaneSaturation, SkewedStreamMatchesBruteForceAcrossHalvings) {
  // Nine in ten steps walk the 1 -> 2 -> 1 cycle, so those transitions
  // (and items 1 and 2 in the global context) saturate repeatedly; the
  // rest spread over 14 items, whose mid-sized counts collide when aged.
  for (const PredictorKind kind :
       {PredictorKind::kMarkov, PredictorKind::kFrequency}) {
    Rng rng(41);
    std::vector<std::uint64_t> cursor = {1, 2};
    std::vector<std::pair<UserId, std::uint64_t>> stream;
    for (int i = 0; i < 320000; ++i) {
      const UserId user = static_cast<UserId>(rng.next_u64() % 2);
      std::uint64_t item = rng.next_u64() % 14;
      if (rng.next_u64() % 10 != 0) item = cursor[user] = 3 - cursor[user];
      stream.push_back({user, item});
    }
    EXPECT_GE(expect_matches_twin(kind, 2, stream, {1, 4, 2, 8}), 2u)
        << predictor_kind_name(kind);
  }
}

/// Brute-force PPM and dependency-graph models over ordered maps, keyed by
/// the literal history instead of a hash, with the arena's halving rule:
/// the ground truth for the blending and clipping planes once counts age.
class BruteForceModel {
 public:
  BruteForceModel(PredictorKind kind, std::size_t users, std::size_t depth)
      : kind_(kind), depth_(depth), history_(users) {}

  void observe(UserId user, std::uint64_t item) {
    std::vector<std::uint64_t>& h = history_[user];
    if (kind_ == PredictorKind::kPpm) {
      for (std::size_t order = 1; order <= std::min(depth_, h.size());
           ++order) {
        add(Key(h.end() - static_cast<std::ptrdiff_t>(order), h.end()), item);
      }
    } else {
      // Each distinct earlier access in the window, other than `item`
      // itself, is followed by `item` once.
      std::vector<std::uint64_t> credited;
      for (const std::uint64_t pred : h) {
        if (pred == item || std::find(credited.begin(), credited.end(),
                                      pred) != credited.end()) {
          continue;
        }
        credited.push_back(pred);
        add(Key{pred}, item);
      }
      ++contexts_[Key{item}].occurrences;
    }
    h.push_back(item);
    if (h.size() > depth_) h.erase(h.begin());
  }

  std::vector<Candidate> predict(UserId user, std::size_t k) const {
    const std::vector<std::uint64_t>& h = history_[user];
    std::map<std::uint64_t, double> blended;
    if (kind_ == PredictorKind::kPpm) {
      double carry = 1.0;
      for (std::size_t order = std::min(depth_, h.size()); order >= 1;
           --order) {
        const auto it = contexts_.find(
            Key(h.end() - static_cast<std::ptrdiff_t>(order), h.end()));
        if (it == contexts_.end() || it->second.total == 0) continue;
        const Context& ctx = it->second;
        const double distinct = static_cast<double>(ctx.counts.size());
        const double total = static_cast<double>(ctx.total);
        const double escape = distinct / (total + distinct);
        for (const auto& [item, c] : ctx.counts) {
          blended[item] +=
              carry * (1.0 - escape) * static_cast<double>(c) / total;
        }
        carry *= escape;
        if (carry < 1e-6) break;
      }
    } else if (!h.empty()) {
      const auto it = contexts_.find(Key{h.back()});
      if (it != contexts_.end() && it->second.occurrences != 0) {
        const double occ = static_cast<double>(it->second.occurrences);
        for (const auto& [item, c] : it->second.counts) {
          blended[item] = std::min(1.0, static_cast<double>(c) / occ);
        }
      }
    }
    std::vector<Candidate> out;
    for (const auto& [item, p] : blended) out.push_back(Candidate{item, p});
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.item < b.item;
              });
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::uint64_t halvings() const { return halvings_; }
  std::size_t context_count() const { return contexts_.size(); }

 private:
  using Key = std::vector<std::uint64_t>;
  struct Context {
    std::map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t occurrences = 0;
  };

  void add(const Key& key, std::uint64_t item) {
    Context& ctx = contexts_[key];
    const auto it = ctx.counts.find(item);
    if (it != ctx.counts.end() && it->second == ContextArena::kCounterMax) {
      ctx.total = 0;
      for (auto& [succ, c] : ctx.counts) {
        c = (c + 1) / 2;
        ctx.total += c;
      }
      ++halvings_;
    }
    ++ctx.counts[item];
    ++ctx.total;
  }

  PredictorKind kind_;
  std::size_t depth_;
  std::vector<std::vector<std::uint64_t>> history_;
  std::map<Key, Context> contexts_;
  std::uint64_t halvings_ = 0;
};

TEST(PredictPlaneSaturation, PpmAndDepgraphMatchBruteForceAcrossHalvings) {
  // Nine in ten steps walk the 1 -> 2 -> 3 cycle, so its transitions
  // saturate (PPM at every order, the dependency graph for every pair in
  // the window); the rest spread over 12 items.
  for (const PredictorKind kind :
       {PredictorKind::kPpm, PredictorKind::kDependencyGraph}) {
    const std::size_t users = 2;
    const std::size_t depth = 3;
    PredictorPlaneConfig cfg;
    cfg.num_users = users;
    cfg.ppm_order = depth;
    cfg.depgraph_lookahead = depth;
    auto plane = make_predictor_plane(kind, cfg);
    BruteForceModel brute(kind, users, depth);
    Rng rng(43);
    std::vector<std::uint64_t> cursor(users, 1);
    const std::vector<std::size_t> limits = {1, 4, 2, 16};
    std::vector<Candidate> got;
    for (std::size_t i = 0; i < 240000; ++i) {
      const UserId user = static_cast<UserId>(rng.next_u64() % users);
      std::uint64_t item = rng.next_u64() % 12;
      if (rng.next_u64() % 10 != 0) item = cursor[user] = cursor[user] % 3 + 1;
      plane->observe(user, item);
      brute.observe(user, item);
      const std::size_t limit = limits[i % limits.size()];
      plane->predict_into(user, limit, got);
      expect_same_candidates(got, brute.predict(user, limit),
                             predictor_kind_name(kind), i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GE(plane->counter_halvings(), 2u) << predictor_kind_name(kind);
    EXPECT_EQ(plane->counter_halvings(), brute.halvings());
    AuditReport report;
    plane->audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(PredictPlaneDifferential, PpmTrieMatchesBruteForceAndHashedContexts) {
  // 64 users walk sessions over a 48-page site: each step follows one of
  // three links from the current page, and one step in eight restarts the
  // session at one of four entry pages, so deep histories recur across
  // users and sessions. After every step the trie plane predicts exactly
  // what the literal-history model does and holds exactly as many contexts
  // as the hashed reference table (no tested stream collides).
  const std::size_t users = 64;
  for (const std::size_t order :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{6}}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = users;
    cfg.ppm_order = order;
    auto plane = make_predictor_plane(PredictorKind::kPpm, cfg);
    BruteForceModel brute(PredictorKind::kPpm, users, order);
    PpmPredictor hashed(order);
    Rng rng(300 + order);
    std::vector<std::uint64_t> page(users, 0);
    const std::vector<std::size_t> limits = {1, 4, 16};
    std::vector<Candidate> got;
    for (std::size_t i = 0; i < 30000; ++i) {
      const UserId user = static_cast<UserId>(rng.next_u64() % users);
      page[user] = rng.next_u64() % 8 == 0
                       ? rng.next_u64() % 4
                       : (page[user] * 7 + 1 + rng.next_u64() % 3) % 48;
      plane->observe(user, page[user]);
      brute.observe(user, page[user]);
      hashed.observe(user, page[user]);
      ASSERT_EQ(plane->context_count(), hashed.context_count())
          << "order " << order << " event " << i;
      ASSERT_EQ(plane->context_count(), brute.context_count())
          << "order " << order << " event " << i;
      const std::size_t limit = limits[i % limits.size()];
      plane->predict_into(user, limit, got);
      expect_same_candidates(got, brute.predict(user, limit), "ppm", i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GE(plane->context_count(), 48u * order) << "order " << order;
    AuditReport report;
    plane->audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(PredictPlane, MarkovNamesAContextOnlyOnceItIsFollowed) {
  // A user's first request names no context and predicts nothing. Item 9
  // is counted as a successor by 30 users long before anyone requests
  // something after it; only then does it become a context.
  PredictorPlaneConfig cfg;
  cfg.num_users = 40;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
  auto legacy = make_legacy_predictor_plane(PredictorKind::kMarkov, cfg);
  std::vector<Candidate> got, want;
  std::size_t step = 0;
  auto observe = [&](UserId user, std::uint64_t item) {
    plane->observe(user, item);
    legacy->observe(user, item);
    plane->predict_into(user, 8, got);
    legacy->predict_into(user, 8, want);
    expect_same_candidates(got, want, "markov", step++);
  };
  observe(0, 5);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(plane->context_count(), 0u);
  for (UserId user = 1; user <= 30; ++user) {
    observe(user, 100 + user);
    observe(user, 9);
    EXPECT_TRUE(got.empty()) << user;  // nothing has followed 9 yet
  }
  EXPECT_EQ(plane->context_count(), 30u);
  observe(31, 9);
  EXPECT_EQ(plane->context_count(), 30u);
  observe(31, 4);
  EXPECT_EQ(plane->context_count(), 31u);
  plane->predict_into(1, 8, got);  // user 1's last request is 9
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 4u);
  EXPECT_EQ(got[0].probability, 1.0);
  observe(0, 9);  // user 0's second request: 5 becomes a context
  EXPECT_EQ(plane->context_count(), 32u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 4u);
  AuditReport report;
  plane->audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PredictPlane, PredictIntoReplacesStaleScratchContents) {
  PredictorPlaneConfig cfg;
  cfg.num_users = 1;
  auto plane = make_predictor_plane(PredictorKind::kMarkov, cfg);
  std::vector<Candidate> scratch(5, Candidate{999, 0.123});
  plane->predict_into(0, 8, scratch);  // nothing observed: must clear
  EXPECT_TRUE(scratch.empty());
  plane->observe(0, 1);
  plane->observe(0, 2);
  plane->observe(0, 1);  // back on item 1, whose lone successor is 2
  plane->predict_into(0, 8, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].item, 2u);
}

TEST(PredictorFactory, NamesRoundTrip) {
  for (int k = 0; k < kNumPredictorKinds; ++k) {
    const auto kind = static_cast<PredictorKind>(k);
    PredictorKind parsed;
    ASSERT_TRUE(parse_predictor_kind(predictor_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PredictorKind parsed;
  EXPECT_FALSE(parse_predictor_kind("nonsense", &parsed));
}

}  // namespace
}  // namespace specpf
