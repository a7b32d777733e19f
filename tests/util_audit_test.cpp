// Audit-layer tests: clean structures sweep clean, corrupted structures get
// caught. The corruption half works through AuditPeer (declared in
// util/audit.hpp, defined only here, friend of every auditable structure):
// each test builds a healthy structure, verifies audit() reports nothing,
// injects exactly the defect class the walker exists to catch — a
// scribbled freed slot in the engine slab, an armed timer
// sharing a seq with a pending entry, swapped arrivals or an arrival
// sharing a seq with a queued node, a misordered heap,
// leaked slot or lost job in the PS link, a broken intrusive
// chain, desynced residency entry, CLOCK flag byte outside tag|ref or
// stray, shared or missing CLOCK overflow handle in the cache arenas, a
// free-list cycle,
// successor-total drift, a doubly named context, a stray or missing
// successor-index entry or a trie ref past its parent's successors in the
// context arena, a misranked or stale entry
// in a ranked successor prefix, metadata corruption in the
// robin-hood tables, a blocked-user entry whose count disagrees with the
// in-flight index or is left at 0 in the stack — and asserts the sweep
// fails with a message naming the defect.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_plane.hpp"
#include "cache/factory.hpp"
#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "predict/context_arena.hpp"
#include "predict/factory.hpp"
#include "predict/predictor_plane.hpp"
#include "predict/ranked_prefix.hpp"
#include "sim/stack_runtime.hpp"
#include "util/audit.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

/// Test-only invariant breaker. Every auditable class befriends this
/// struct; the library never defines it, so these mutators are the only
/// code that can reach into the slabs from outside.
struct AuditPeer {
  // --- cache arenas (intrusive-list slab) ---------------------------------
  static void break_chain(arena::ListArenaBase& a, std::uint32_t user) {
    // The chain head's prev must be kNull; pointing it anywhere else is the
    // signature of a botched unlink/splice.
    a.nodes_[a.users_[user].head].prev = 7;
  }
  static void desync_residency(arena::ListArenaBase& a, std::uint32_t user,
                               ItemId item) {
    // Redirect one residency entry at the wrong slab node.
    a.map_[arena::residency_key(user, item)] = a.users_[user].head;
  }
  static void cycle_free_list(arena::ListArenaBase& a) {
    // Two fabricated slab nodes linked into a 2-cycle at the free head.
    const auto n1 = static_cast<arena::NodeIndex>(a.nodes_.size());
    a.nodes_.emplace_back();
    const auto n2 = static_cast<arena::NodeIndex>(a.nodes_.size());
    a.nodes_.emplace_back();
    a.nodes_[n1].next = n2;
    a.nodes_[n2].next = n1;
    a.free_ = n1;
  }

  // --- cache arenas (per-user blocks) -------------------------------------
  /// Bytes of the slots of `user`'s block at or past its size: storage the
  /// arena has never written.
  template <typename SmallArena>
  static std::vector<unsigned char> unwritten_slots(const SmallArena& a,
                                                    std::uint32_t user) {
    const auto* block =
        reinterpret_cast<const unsigned char*>(&a.nodes_[a.base(user)]);
    using Node = std::remove_reference_t<decltype(a.nodes_[0])>;
    return {block + a.users_[user].size * sizeof(Node),
            block + a.capacity_ * sizeof(Node)};
  }

  /// Writes a live CLOCK frame's flag byte, in the head or the user's
  /// overflow block.
  template <bool kInline>
  static void set_clock_flags(arena::ClockArenaT<kInline>& a,
                              std::uint32_t user, std::uint32_t frame,
                              std::uint8_t flags) {
    *a.frames_.frame(user, a.users_[user].overflow, frame).flags = flags;
  }
  /// The user's overflow handle, kNull when it has none.
  template <bool kInline>
  static std::uint32_t clock_overflow(const arena::ClockArenaT<kInline>& a,
                                     std::uint32_t user) {
    return a.users_[user].overflow;
  }
  /// Points the user's overflow handle elsewhere (kNull drops it).
  template <bool kInline>
  static void set_clock_overflow(arena::ClockArenaT<kInline>& a,
                                 std::uint32_t user, std::uint32_t handle) {
    a.users_[user].overflow = handle;
  }
  /// Counts the user's first never-written frame as live.
  template <bool kInline>
  static void count_unwritten_frame(arena::ClockArenaT<kInline>& a,
                                    std::uint32_t user) {
    ++a.users_[user].live;
  }

  // --- context arena ------------------------------------------------------
  static void drift_successor_total(ContextArena& a, ContextArena::CtxId c) {
    ++a.total_[c];  // context total no longer equals the successor-count sum
  }
  static void overlap_blocks(ContextArena& a, ContextArena::CtxId c,
                             ContextArena::CtxId onto) {
    a.offset_[c] = a.offset_[onto];  // two contexts share one block
  }
  static void stale_offset(ContextArena& a, ContextArena::CtxId c) {
    // Point the context at the most recently outgrown block of the class
    // below its own — its own old block when it was the last to grow.
    const int cls = std::countr_zero(a.capacity(c));
    a.offset_[c] = a.free_[cls - 1].back();
  }
  static void over_capacity(ContextArena& a, ContextArena::CtxId c) {
    a.distinct_[c] = a.capacity(c) + 1;  // one successor past the block
  }
  static void index_scanned_block(ContextArena& a, ContextArena::CtxId c) {
    // A scanned block's first successor gains an index entry.
    a.succ_index_[ContextArena::succ_key(c, a.successor_id(c, 0))] = 0;
  }
  static void unindex_large_block(ContextArena& a, ContextArena::CtxId c) {
    // An indexed block's last successor loses its index entry.
    a.succ_index_.erase(
        ContextArena::succ_key(c, a.successor_id(c, a.distinct(c) - 1)));
  }
  static void alias_child(ContextArena& a, ContextArena::CtxId parent,
                          std::uint32_t slot, ContextArena::CtxId named) {
    // The slot names a context that already has a name of its own.
    a.child_[a.offset_[parent] + slot] = named;
  }
  static void ref_past_distinct(ContextPath& p, const ContextArena& a,
                                std::uint32_t user, std::size_t order) {
    ContextPath::Ref& ref = p.refs_[user * p.depth_ + order - 1];
    ref.slot = a.distinct(ref.parent);  // one past the parent's successors
  }

  // --- ranked successor prefix -------------------------------------------
  static void swap_prefix_entries(RankedPrefix& p, ContextArena::CtxId c) {
    std::swap(p.entries_[c * p.stride_], p.entries_[c * p.stride_ + 1]);
  }
  static void stale_prefix_count(RankedPrefix& p, ContextArena::CtxId c) {
    --p.entries_[c * p.stride_ + 1].count;  // a bump the prefix missed
  }

  // --- flat hash tables ---------------------------------------------------
  static void corrupt_meta(FlatHashMap<std::uint32_t>& m) {
    for (std::size_t i = 0; i < m.capacity_; ++i) {
      if (m.meta_[i] != 0) {
        ++m.meta_[i];  // stored probe distance no longer matches the key
        return;
      }
    }
  }

  // --- DES engine slab ----------------------------------------------------
  static constexpr std::uint32_t kNoSlot = Simulator::kNoSlot;

  static std::uint32_t freed_tracked_slot(const Simulator& s) {
    for (std::uint32_t slot = s.free_head_; slot != kNoSlot;
         slot = s.node_at(slot).next_free) {
      if (slot < s.poisoned_.size() && s.poisoned_[slot]) return slot;
    }
    return kNoSlot;
  }
  static void scribble_freed_slot(Simulator& s, std::uint32_t slot) {
    // A write through a freed node lands in freed storage: simulate the
    // scribble by repainting the poison fill.
    s.node_at(slot).action.poison_storage(0xAB);
  }
  static void cycle_engine_free_list(Simulator& s) {
    s.node_at(s.free_head_).next_free = s.free_head_;
  }
  static bool break_pending_order(Simulator& s) {
    if (s.heap_.size() > Simulator::kHeapBase + 1) {
      s.heap_[Simulator::kHeapBase].time += 1e9;
      return true;
    }
    return false;
  }

  // Gives the first armed timer the seq of the heap's top entry (keeping
  // the earliest-timer cache in step), so only the seq check can object.
  static bool share_timer_seq(Simulator& s) {
    if (s.heap_.size() <= Simulator::kHeapBase) return false;
    const std::uint64_t seq =
        s.heap_[Simulator::kHeapBase].tie >> Simulator::kSlotBits;
    for (std::uint32_t i = 0; i < s.timers_.size(); ++i) {
      Simulator::Timer& timer = s.timers_[i];
      if (!timer.armed) continue;
      timer.key.tie = (seq << Simulator::kSlotBits) | i;
      if (s.timer_top_ == i) s.timer_top_key_ = timer.key;
      return true;
    }
    return false;
  }

  // Swaps the last two pending arrivals (of at least three), so the front
  // stays put and only the FIFO order check can object.
  static bool swap_arrivals(Simulator& s) {
    const std::size_t n = s.arrivals_.size();
    if (n < 3) return false;
    std::swap(s.arrivals_[n - 2], s.arrivals_[n - 1]);
    return true;
  }
  // Gives the last pending arrival (of at least two) the seq of the heap's
  // top entry. That arrival is not the front and its time stays, so with
  // strictly increasing push times only the seq check can object.
  static bool share_arrival_seq(Simulator& s) {
    const std::size_t n = s.arrivals_.size();
    if (s.heap_.size() <= Simulator::kHeapBase || n < 2) return false;
    const std::uint64_t seq =
        s.heap_[Simulator::kHeapBase].tie >> Simulator::kSlotBits;
    s.arrivals_[n - 1].key.tie = seq << Simulator::kSlotBits;
    return true;
  }

  // --- PS link (run + heap over a job slab) -----------------------------
  static std::size_t ps_run_size(const PsServer& s) { return s.run_.size(); }
  static std::size_t ps_heap_size(const PsServer& s) { return s.heap_.size(); }
  static std::size_t ps_free_slots(const PsServer& s) {
    return s.free_slots_.size();
  }
  static void swap_run_ends(PsServer& s) {
    std::swap(s.run_[0], s.run_[s.run_.size() - 1]);
  }
  static void swap_heap_root_and_child(PsServer& s) {
    std::swap(s.heap_[0], s.heap_[1]);
  }
  static void leak_free_slot(PsServer& s) { s.free_slots_.pop_back(); }
  static void unlink_run_head(PsServer& s) {
    // Free the run's head job without completing it: the slab still
    // balances, but the queue no longer holds every job the server counts.
    s.free_slots_.push_back(s.run_[0]);
    s.run_.pop_front();
  }
  static void advance_virtual_clock(PsServer& s) { s.virtual_time_ += 1e6; }

  // --- stack runtime ------------------------------------------------------
  static std::uint32_t blocked_count(const StackRuntime& rt, UserId user) {
    const StackRuntime::Blocked* b = rt.blocked_.find(user);
    return b == nullptr ? 0 : b->holding;
  }
  static void skew_blocked_count(StackRuntime& rt, UserId user) {
    ++rt.blocked_[user].holding;  // one more than the in-flight index holds
  }
  static void zero_blocked_count(StackRuntime& rt, UserId user) {
    // A blocked user whose count reached 0 without the entry being taken:
    // its deferred prefetches would never dispatch.
    StackRuntime::Blocked& b = rt.blocked_[user];
    b.holding = 0;
    b.deferred.push_back(3);
  }
  static void drift_estimate_sum(StackRuntime& rt) {
    rt.estimate_sum_ += 0.5;
  }

  // --- telemetry plane ----------------------------------------------------
  static void reverse_recorder_timestamps(TimeSeriesRecorder& r) {
    // A row stamped before its predecessor: the signature of a sample taken
    // outside the engine's time order.
    r.times_[1] = r.times_[0] - 1.0;
  }
  static void end_span_before_start(SpanTracer& t) {
    // A span that ends before it starts: the signature of a record built
    // from the wrong instants.
    t.ring_[2].t_end = t.ring_[2].t_start - 1.0;
  }
  static void desync_registry_names(TelemetryRegistry& r) {
    r.gauge_names_.pop_back();  // slot with no name
  }

  // --- divergence detector ------------------------------------------------
  static void advance_detector_cursor(DivergenceDetector& d) {
    // A staleness cursor ahead of its recorder means evaluate() would skip
    // rows that were never seen — the signature of a recorder swap or a
    // torn read of recorded().
    d.signals_[0].last_recorded = d.signals_[0].series->recorded() + 5;
  }
  static void latch_without_onset(DivergenceDetector& d) {
    // A divergent latch with no onset estimate: the latch path always
    // records one, so this state can only come from memory corruption.
    d.signals_[0].diverged = true;
    d.signals_[0].onset = -1.0;
  }
};

namespace {

/// Deterministic LCG so the sweeps need no <random> plumbing.
struct TinyRng {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 33) % n);
  }
};

void expect_failure_containing(const AuditReport& report,
                               const std::string& needle) {
  EXPECT_FALSE(report.ok()) << "corruption was not detected";
  const auto& fails = report.failures();
  const bool found = std::any_of(
      fails.begin(), fails.end(), [&](const std::string& f) {
        return f.find(needle) != std::string::npos;
      });
  EXPECT_TRUE(found) << "no failure mentions '" << needle
                     << "'; got:\n" << report.summary();
}

// ---------------------------------------------------------------------------
// Clean sweeps: healthy structures audit clean in every configuration.
// ---------------------------------------------------------------------------

TEST(AuditClean, CachePlanesAllKindsBothArenaVariants) {
  for (int k = 0; k < kNumCacheKinds; ++k) {
    // capacity 4 selects the small (inline-residency) arenas, 48 the
    // slab + hash-index arenas; both variants of every policy.
    static_assert(4 <= arena::kInlineResidencyCapacity &&
                  48 > arena::kInlineResidencyCapacity);
    for (std::size_t capacity : {std::size_t{4}, std::size_t{48}}) {
      CachePlaneConfig cfg;
      cfg.num_users = 16;
      cfg.capacity = capacity;
      cfg.seed = 20010803;
      auto plane = make_cache_plane(static_cast<CacheKind>(k), cfg);
      TinyRng rng{0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k)};
      for (int op = 0; op < 4000; ++op) {
        const std::uint32_t user = rng.below(16);
        const ItemId item = rng.below(120);
        plane->access(user, item);
        switch (rng.below(3)) {
          case 0: plane->admit_demand(user, item); break;
          case 1: plane->admit_prefetch(user, item); break;
          default: plane->admit_prefetch_accessed(user, item); break;
        }
      }
      AuditReport report;
      plane->audit(report);
      EXPECT_TRUE(report.ok())
          << "kind " << k << " capacity " << capacity << ": "
          << report.summary();
      EXPECT_GT(report.checks(), 20u);
    }
  }
}

TEST(AuditClean, PredictorPlanesAllArenaKinds) {
  for (PredictorKind kind : {PredictorKind::kMarkov, PredictorKind::kPpm,
                             PredictorKind::kDependencyGraph,
                             PredictorKind::kFrequency}) {
    PredictorPlaneConfig cfg;
    cfg.num_users = 8;
    auto plane = make_predictor_plane(kind, cfg);
    TinyRng rng{42};
    std::vector<core::Candidate> scratch;
    for (int op = 0; op < 3000; ++op) {
      const UserId user = rng.below(8);
      // Sessions with repeated short motifs so contexts accumulate real
      // successor mass (plus noise so interning keeps growing).
      const std::uint64_t item =
          (op % 5 == 0) ? rng.below(200) : (op % 7);
      plane->observe(user, item);
      if (op % 17 == 0) plane->predict_into(user, 4, scratch);
    }
    AuditReport report;
    plane->audit(report);
    EXPECT_TRUE(report.ok()) << predictor_kind_name(kind) << ": "
                             << report.summary();
  }
}

TEST(AuditClean, EngineScheduleRunSweepsClean) {
  Simulator sim;
  sim.enable_audit_mode();
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(0.01 * (i + 1), [&fired] { ++fired; });
  }
  sim.run_until(2.0);  // executes 2/5 of the events, freeing their slots
  for (int i = 0; i < 40; ++i) {
    sim.schedule_in(0.5 + 0.01 * i, [&fired] { ++fired; });
  }
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks(), 500u);
  sim.run();
  AuditReport drained;
  sim.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
  EXPECT_EQ(fired, 540);
}

TEST(AuditClean, StackRuntimeEndToEnd) {
  Simulator sim;
  PredictorPlaneConfig pcfg;
  pcfg.num_users = 6;
  auto predictor = make_predictor_plane(PredictorKind::kMarkov, pcfg);
  FixedThresholdPolicy policy(0.05);
  StackRuntimeConfig cfg;
  cfg.num_users = 6;
  cfg.cache_capacity = 8;
  cfg.bandwidth = 50.0;
  StackRuntime runtime(sim, *predictor, policy, std::move(cfg));
  TinyRng rng{7};
  for (int i = 0; i < 300; ++i) {
    const UserId user = rng.below(6);
    const ItemId item = (i % 4 == 0) ? rng.below(64) : (i % 9);
    sim.schedule_at(0.05 * (i + 1),
                    [&runtime, user, item] { runtime.handle_request(user, item); });
  }
  sim.schedule_at(5.0, [&runtime] { runtime.begin_measurement(); });
  // Mid-run sweep with transfers genuinely in flight.
  AuditReport midrun;
  sim.schedule_at(9.0, [&runtime, &midrun] { runtime.audit(midrun); });
  sim.run();
  EXPECT_TRUE(midrun.ok()) << midrun.summary();
  EXPECT_GT(midrun.checks(), 50u);
  AuditReport drained;
  runtime.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
}

// ---------------------------------------------------------------------------
// Corruption injection: every defect class the walkers exist for.
// ---------------------------------------------------------------------------

/// LRU arena with enough traffic that user 0 has a full chain.
arena::LruArena seeded_lru() {
  arena::LruArena a(/*num_users=*/4, /*capacity=*/6, /*seed=*/1);
  for (std::uint32_t user = 0; user < 4; ++user) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      a.insert(user, /*item=*/user * 100 + i, arena::EntryTag::kTagged,
               [](ItemId, arena::EntryTag) {});
    }
  }
  return a;
}

TEST(AuditInjection, CacheArenaBrokenIntrusiveChain) {
  arena::LruArena a = seeded_lru();
  AuditReport clean;
  a.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::break_chain(a, 0);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "broken prev link");
}

TEST(AuditInjection, CacheArenaResidencyDesync) {
  arena::LruArena a = seeded_lru();
  // Remap the residency entry of an item user 0 still caches (items 4..9
  // survive with capacity 6; the chain head is item 9, so desync item 5).
  AuditPeer::desync_residency(a, 0, 5);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "residency index");
}

TEST(AuditInjection, CacheArenaFreeListCycle) {
  arena::LruArena a = seeded_lru();
  AuditPeer::cycle_free_list(a);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "cycle");
}

/// Audit builds fill fresh per-user-block storage with 0xDD, so a read of
/// a slot no insert has written yields poisoned items and links; other
/// builds leave the storage unwritten, and its bytes are indeterminate.
TEST(AuditInjection, SmallCacheArenaUnwrittenSlotsCarryPoison) {
  if constexpr (!kAuditBuild) {
    GTEST_SKIP() << "unwritten block storage is poisoned in SPECPF_AUDIT "
                    "builds only";
  }
  const auto expect_poisoned = [](const std::vector<unsigned char>& bytes) {
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](unsigned char b) {
      return b == arena::kUnwrittenByte;
    }));
  };
  const std::size_t cap = arena::kInlineResidencyCapacity;
  arena::SmallLruArena lru(/*num_users=*/2, cap, /*seed=*/1);
  arena::SmallLfuArena lfu(/*num_users=*/2, cap, /*seed=*/1);
  const auto no_eviction = [](ItemId, arena::EntryTag) {};
  for (ItemId item = 0; item < 3; ++item) {
    lru.insert(0, item, arena::EntryTag::kTagged, no_eviction);
    lfu.insert(0, item, arena::EntryTag::kTagged, no_eviction);
  }
  for (std::uint32_t user = 0; user < 2; ++user) {
    expect_poisoned(AuditPeer::unwritten_slots(
        static_cast<const arena::SmallListArenaBase&>(lru), user));
    expect_poisoned(AuditPeer::unwritten_slots(lfu, user));
  }
  AuditReport report;
  lru.audit(report);
  lfu.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

/// A CLOCK flag byte holds only the tag and reference bits; any other bit
/// in a live frame is reported, in the head or the overflow block, in both
/// residency modes.
template <bool kInline>
void expect_clock_flag_corruption_caught(std::size_t capacity,
                                         std::uint32_t frame) {
  arena::ClockArenaT<kInline> a(/*num_users=*/2, capacity, /*seed=*/1);
  const auto no_eviction = [](ItemId, arena::EntryTag) {};
  for (ItemId item = 0; item < arena::kHeadFrames + 2; ++item) {
    a.insert(0, item, arena::EntryTag::kTagged, no_eviction);
  }
  AuditReport clean;
  a.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::set_clock_flags(a, 0, frame, arena::kRefBit | 0x04);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, "user 0: frame " + std::to_string(frame) +
                                        " has flag bits outside tag|ref (6)");
}

TEST(AuditInjection, ClockArenaFlagBitOutsideTagAndRef) {
  for (const std::uint32_t frame : {1u, arena::kHeadFrames + 1}) {
    expect_clock_flag_corruption_caught<true>(arena::kInlineResidencyCapacity,
                                              frame);
    expect_clock_flag_corruption_caught<false>(
        arena::kInlineResidencyCapacity + 1, frame);
  }
}

/// Audit builds fill CLOCK's flag columns with 0xDD, which has bits outside
/// tag|ref: a frame counted live before it was written fails the same
/// check, in the head and in the overflow block.
TEST(AuditInjection, ClockArenaNeverWrittenFrameReadAsLive) {
  if constexpr (!kAuditBuild) {
    GTEST_SKIP() << "unwritten block storage is poisoned in SPECPF_AUDIT "
                    "builds only";
  }
  static_assert((arena::kUnwrittenByte & ~(arena::kTagBit | arena::kRefBit)) !=
                0);
  for (const std::uint32_t live : {3u, arena::kHeadFrames + 2}) {
    arena::SmallClockArena a(/*num_users=*/2, /*capacity=*/16, /*seed=*/1);
    const auto no_eviction = [](ItemId, arena::EntryTag) {};
    for (ItemId item = 0; item < live; ++item) {
      a.insert(0, item, arena::EntryTag::kTagged, no_eviction);
    }
    AuditPeer::count_unwritten_frame(a, 0);
    AuditReport report;
    a.audit(report);
    expect_failure_containing(report, "user 0: frame " + std::to_string(live) +
                                          " has flag bits outside tag|ref "
                                          "(221)");
  }
}

/// Users 0 and 1 hold six entries each (overflow blocks 0 and 1), user 2
/// holds two (no block); `corrupt` then breaks one overflow handle.
template <bool kInline, typename Corrupt>
void expect_clock_overflow_corruption_caught(std::size_t capacity,
                                             Corrupt&& corrupt,
                                             const std::string& expected) {
  arena::ClockArenaT<kInline> a(/*num_users=*/3, capacity, /*seed=*/1);
  const auto no_eviction = [](ItemId, arena::EntryTag) {};
  for (std::uint32_t user = 0; user < 3; ++user) {
    const ItemId count = user == 2 ? 2 : arena::kHeadFrames + 2;
    for (ItemId item = 0; item < count; ++item) {
      a.insert(user, item, arena::EntryTag::kTagged, no_eviction);
    }
  }
  ASSERT_EQ(AuditPeer::clock_overflow(a, 0), 0u);
  ASSERT_EQ(AuditPeer::clock_overflow(a, 1), 1u);
  ASSERT_EQ(AuditPeer::clock_overflow(a, 2), arena::kNull);
  AuditReport clean;
  a.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  corrupt(a);
  AuditReport report;
  a.audit(report);
  expect_failure_containing(report, expected);
}

template <bool kInline>
void expect_clock_overflow_handles_audited(std::size_t capacity) {
  using Arena = arena::ClockArenaT<kInline>;
  expect_clock_overflow_corruption_caught<kInline>(
      capacity, [](Arena& a) { AuditPeer::set_clock_overflow(a, 0, 7); },
      "user 0: overflow handle 7 out of range (2 blocks)");
  expect_clock_overflow_corruption_caught<kInline>(
      capacity, [](Arena& a) { AuditPeer::set_clock_overflow(a, 1, 0); },
      "user 1: overflow block 0 is also user 0's");
  expect_clock_overflow_corruption_caught<kInline>(
      capacity,
      [](Arena& a) { AuditPeer::set_clock_overflow(a, 0, arena::kNull); },
      "user 0 holds 6 entries but no overflow block");
  expect_clock_overflow_corruption_caught<kInline>(
      capacity, [](Arena& a) { AuditPeer::set_clock_overflow(a, 2, 1); },
      "user 2 holds 2 entries, within its head, but owns overflow block 1");
}

TEST(AuditInjection, ClockArenaOverflowHandleCorruption) {
  expect_clock_overflow_handles_audited<true>(arena::kInlineResidencyCapacity);
  expect_clock_overflow_handles_audited<false>(
      arena::kInlineResidencyCapacity + 1);
}

TEST(AuditInjection, ContextArenaSuccessorTotalDrift) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  for (std::uint64_t item = 0; item < 12; ++item) {
    arena.add(ctx, arena.intern_item(item % 5));
  }
  AuditReport clean;
  arena.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::drift_successor_total(arena, ctx);
  AuditReport report;
  arena.audit(report);
  EXPECT_FALSE(report.ok()) << "successor-total drift was not detected";
}

/// Two contexts grown in lockstep through classes 0..3 to capacity 8. No
/// growth ever needs a smaller class, so every outgrown block is still on
/// its free list, and `b`, the second to grow, freed the last one of each.
struct GrownArena {
  ContextArena arena;
  ContextArena::CtxId a = arena.item_context(arena.intern_item(0x1234u));
  ContextArena::CtxId b = arena.item_context(arena.intern_item(0x5678u));
  GrownArena() {
    for (std::uint64_t item = 0; item < 8; ++item) {
      arena.add(a, arena.intern_item(item));
      arena.add(b, arena.intern_item(item + 100));
    }
    AuditReport clean;
    arena.audit(clean);
    EXPECT_TRUE(clean.ok()) << clean.summary();
  }
};

TEST(AuditInjection, ContextArenaOverlappingBlocks) {
  GrownArena g;
  AuditPeer::overlap_blocks(g.arena, g.b, g.a);
  AuditReport report;
  g.arena.audit(report);
  expect_failure_containing(report, "overlaps a live block");
}

TEST(AuditInjection, ContextArenaStaleOffset) {
  GrownArena g;
  AuditPeer::stale_offset(g.arena, g.b);
  AuditReport report;
  g.arena.audit(report);
  expect_failure_containing(report, "free block at");
}

TEST(AuditInjection, ContextArenaOverCapacity) {
  // The capacity is derived from the successor count, so one successor
  // too many doubles the block the context claims: b's block is the last
  // in the pool, and its doubled claim runs past the end.
  GrownArena g;
  AuditPeer::over_capacity(g.arena, g.b);
  AuditReport report;
  g.arena.audit(report);
  expect_failure_containing(report, "runs past the pool");
}

TEST(AuditInjection, ContextArenaIndexEntryForScannedBlock) {
  GrownArena g;  // both blocks hold 8 <= kScanCapacity successors
  static_assert(8 <= ContextArena::kScanCapacity);
  AuditPeer::index_scanned_block(g.arena, g.a);
  AuditReport report;
  g.arena.audit(report);
  expect_failure_containing(report, "has an index entry in a scanned block");
}

TEST(AuditInjection, ContextArenaMissingIndexEntryForLargeBlock) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.root_context();
  for (std::uint32_t item = 0; item <= ContextArena::kScanCapacity; ++item) {
    arena.add(ctx, arena.intern_item(item));
  }
  AuditReport clean;
  arena.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::unindex_large_block(arena, ctx);
  AuditReport report;
  arena.audit(report);
  expect_failure_containing(report, "failed the successor index round-trip");
}

/// An order-3 PPM trie: users walk short overlapping item cycles, so the
/// arena holds item contexts with child contexts under them, and every
/// user's path holds refs of all three orders.
struct GrownTrie {
  ContextArena arena{/*child_column=*/true};
  ContextPath path{4, 3};
  GrownTrie() {
    for (std::uint32_t step = 0; step < 60; ++step) {
      for (std::uint32_t user = 0; user < 4; ++user) {
        path.observe(arena, user, arena.intern_item((step + user) % 5));
      }
    }
    AuditReport clean;
    arena.audit(clean);
    path.audit(arena, clean);
    EXPECT_TRUE(clean.ok()) << clean.summary();
  }
};

TEST(AuditInjection, ContextArenaChildNamingANamedContext) {
  GrownTrie g;
  // Item 0's context gets a child ref to item 1's context as well.
  const ContextArena::CtxId parent = g.arena.find_item_context(0);
  const ContextArena::CtxId named = g.arena.find_item_context(1);
  ASSERT_NE(parent, ContextArena::kNoCtx);
  ASSERT_NE(named, ContextArena::kNoCtx);
  AuditPeer::alias_child(g.arena, parent, 0, named);
  AuditReport report;
  g.arena.audit(report);
  expect_failure_containing(report, "have two names");
}

TEST(AuditInjection, ContextPathRefPastItsParentsSuccessors) {
  GrownTrie g;
  AuditPeer::ref_past_distinct(g.path, g.arena, 2, 3);
  AuditReport report;
  g.path.audit(g.arena, report);
  expect_failure_containing(report, "past its parent's");
}

/// A context with six successors of distinct counts (item i seen i + 1
/// times) behind a stride-4 prefix. The stride is set after one add per
/// item, so the later adds maintain the prefix incrementally.
ContextArena::CtxId seeded_ranked_prefix(ContextArena& arena,
                                         RankedPrefix& ranks) {
  const ContextArena::CtxId ctx = arena.root_context();
  for (std::uint64_t item = 0; item < 6; ++item) {
    ranks.on_add(arena, ctx, item,
                 arena.add(ctx, arena.intern_item(item)).count);
  }
  EXPECT_EQ(ranks.top(arena, ctx, 4).size(), 4u);
  for (std::uint64_t item = 0; item < 6; ++item) {
    for (std::uint64_t n = 0; n < item; ++n) {
      ranks.on_add(arena, ctx, item,
                   arena.add(ctx, arena.intern_item(item)).count);
    }
  }
  EXPECT_EQ(ranks.stride(), 4u);
  AuditReport clean;
  ranks.audit(arena, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  return ctx;
}

TEST(AuditInjection, RankedPrefixSwappedEntries) {
  ContextArena arena;
  RankedPrefix ranks;
  const ContextArena::CtxId ctx = seeded_ranked_prefix(arena, ranks);
  AuditPeer::swap_prefix_entries(ranks, ctx);
  AuditReport report;
  ranks.audit(arena, report);
  expect_failure_containing(report, "prefix rank 0");
}

TEST(AuditInjection, RankedPrefixStaleCount) {
  ContextArena arena;
  RankedPrefix ranks;
  const ContextArena::CtxId ctx = seeded_ranked_prefix(arena, ranks);
  AuditPeer::stale_prefix_count(ranks, ctx);
  AuditReport report;
  ranks.audit(arena, report);
  expect_failure_containing(report, "prefix rank 1");
}

TEST(AuditInjection, FlatHashMapMetadataCorruption) {
  FlatHashMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 200; ++k) map[k * 0x5851F42Dull] = k;
  AuditReport clean;
  map.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::corrupt_meta(map);
  AuditReport report;
  map.audit(report);
  EXPECT_FALSE(report.ok()) << "probe-distance corruption was not detected";
}

/// Engine with audit mode on, some executed (freed) slots, and pending
/// events in the ordered tier.
void seed_engine(Simulator& sim) {
  sim.enable_audit_mode();
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(0.1 * (i + 1), [] {});
  }
  sim.run_until(2.0);  // frees ~20 slots, leaves the rest pending
}

TEST(AuditInjection, EngineFreedSlotScribble) {
  Simulator sim;
  seed_engine(sim);
  const std::uint32_t slot = AuditPeer::freed_tracked_slot(sim);
  ASSERT_NE(slot, AuditPeer::kNoSlot);
  AuditPeer::scribble_freed_slot(sim, slot);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "poison");
}

TEST(AuditInjection, EngineFreeListCycle) {
  Simulator sim;
  seed_engine(sim);
  AuditPeer::cycle_engine_free_list(sim);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "cycle");
}

TEST(AuditInjection, EnginePendingOrderViolation) {
  Simulator sim;
  seed_engine(sim);
  ASSERT_TRUE(AuditPeer::break_pending_order(sim))
      << "seed_engine left no ordered pending tier to corrupt";
  AuditReport report;
  sim.audit(report);
  EXPECT_FALSE(report.ok()) << "pending-order violation was not detected";
}

TEST(AuditInjection, EngineTimerSharesSeqWithPendingEntry) {
  Simulator sim;
  seed_engine(sim);
  const TimerId timer = sim.add_timer([] {});
  sim.arm_timer(timer, 5.0);
  AuditReport clean;
  sim.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  ASSERT_TRUE(AuditPeer::share_timer_seq(sim));
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "shares its seq");
}

/// seed_engine plus four pending arrivals at strictly increasing times past
/// every heap event.
void seed_engine_arrivals(Simulator& sim) {
  seed_engine(sim);
  sim.bind_arrivals([](std::uint64_t, std::uint64_t) {});
  for (int i = 0; i < 4; ++i) {
    sim.push_arrival(10.0 + i, static_cast<std::uint64_t>(i), 0);
  }
  AuditReport clean;
  sim.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();
}

TEST(AuditInjection, EngineArrivalsSwapped) {
  Simulator sim;
  seed_engine_arrivals(sim);
  ASSERT_TRUE(AuditPeer::swap_arrivals(sim));
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "out of (time, seq) order");
}

TEST(AuditInjection, EngineArrivalSharesSeqWithQueuedNode) {
  Simulator sim;
  seed_engine_arrivals(sim);
  ASSERT_TRUE(AuditPeer::share_arrival_seq(sim));
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "shares its seq");
}

/// Overloaded PS link, equal sizes with every fourth job short: the short
/// ones sort below the run's back and land in the heap, so both tiers hold
/// keys and some slots have already been recycled.
void seed_ps(Simulator& sim, PsServer& server) {
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(0.05 * i, [&server, i] {
      server.submit(i % 4 == 3 ? 0.2 : 1.0, nullptr);
    });
  }
  sim.run_until(3.0);
  ASSERT_GE(AuditPeer::ps_run_size(server), 2u);
  ASSERT_GE(AuditPeer::ps_heap_size(server), 2u);
  ASSERT_GE(AuditPeer::ps_free_slots(server), 1u);
  AuditReport clean;
  server.audit(clean);
  sim.audit(clean);  // the link's completion timer is armed
  ASSERT_TRUE(clean.ok()) << clean.summary();
}

TEST(AuditClean, PsServerBothTiersSweepClean) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  sim.run();
  AuditReport drained;
  server.audit(drained);
  EXPECT_TRUE(drained.ok()) << drained.summary();
  EXPECT_EQ(server.stats().completed, 60u);
}

TEST(AuditInjection, PsServerRunOutOfOrder) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  AuditPeer::swap_run_ends(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "run not increasing");
}

TEST(AuditInjection, PsServerHeapPropertyBroken) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  AuditPeer::swap_heap_root_and_child(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "4-ary heap property");
}

TEST(AuditInjection, PsServerSlabLeak) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  AuditPeer::leak_free_slot(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "slab conservation");
}

TEST(AuditInjection, PsServerLostJob) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  AuditPeer::unlink_run_head(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "live jobs");
}

TEST(AuditInjection, PsServerKeyBelowVirtualClock) {
  Simulator sim;
  PsServer server(sim, 10.0);
  seed_ps(sim, server);
  AuditPeer::advance_virtual_clock(server);
  AuditReport report;
  server.audit(report);
  expect_failure_containing(report, "below the virtual clock");
}

/// A two-user stack stopped at t = 0.105, while user 0's demand fetch of
/// the request at t = 0.1 (0.01 s on the link) is in flight.
struct BlockedStack {
  Simulator sim;
  std::unique_ptr<PredictorPlane> predictor;
  FixedThresholdPolicy policy{0.05};
  std::unique_ptr<StackRuntime> runtime;

  BlockedStack() {
    PredictorPlaneConfig pcfg;
    pcfg.num_users = 2;
    predictor = make_predictor_plane(PredictorKind::kFrequency, pcfg);
    StackRuntimeConfig cfg;
    cfg.num_users = 2;
    cfg.cache_capacity = 4;
    cfg.bandwidth = 100.0;
    runtime = std::make_unique<StackRuntime>(sim, *predictor, policy,
                                             std::move(cfg));
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(0.1 * (i + 1), [this, i] {
        runtime->handle_request(static_cast<UserId>(i % 2),
                                static_cast<ItemId>(i % 7));
      });
    }
    sim.run_until(0.105);
  }
};

TEST(AuditInjection, StackRuntimeBlockedCountDisagreesWithInflightIndex) {
  BlockedStack s;
  ASSERT_EQ(AuditPeer::blocked_count(*s.runtime, 0), 1u);
  AuditReport clean;
  s.runtime->audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::skew_blocked_count(*s.runtime, 0);
  AuditReport report;
  s.runtime->audit(report);
  expect_failure_containing(report, "counts 2 link-holding transfers but "
                                    "the in-flight index holds 1");
}

TEST(AuditInjection, StackRuntimeBlockedEntryLeftAtCountZero) {
  BlockedStack s;
  s.sim.run();  // every fetch has landed: no user is blocked
  ASSERT_EQ(s.runtime->blocked_users(), 0u);
  AuditPeer::zero_blocked_count(*s.runtime, 1);
  AuditReport report;
  s.runtime->audit(report);
  expect_failure_containing(report, "user 1: blocked-user entry left at "
                                    "count 0 (1 deferred prefetches)");
}

TEST(AuditInjection, StackRuntimeEstimateSumDrift) {
  Simulator sim;
  PredictorPlaneConfig pcfg;
  pcfg.num_users = 2;
  auto predictor = make_predictor_plane(PredictorKind::kFrequency, pcfg);
  FixedThresholdPolicy policy(0.05);
  StackRuntimeConfig cfg;
  cfg.num_users = 2;
  cfg.cache_capacity = 4;
  cfg.bandwidth = 100.0;
  StackRuntime runtime(sim, *predictor, policy, std::move(cfg));
  for (int i = 0; i < 40; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&runtime, i] {
      runtime.handle_request(static_cast<UserId>(i % 2),
                             static_cast<ItemId>(i % 7));
    });
  }
  sim.run();
  AuditPeer::drift_estimate_sum(runtime);
  AuditReport report;
  runtime.audit(report);
  expect_failure_containing(report, "drifted");
}

TEST(AuditInjection, TelemetryRecorderTimestampReversal) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/2, /*capacity=*/16, /*interval=*/0.5);
  const std::vector<double> row = {1.0, 2.0};
  for (int i = 0; i < 6; ++i) rec.record(0.5 * i, row);
  AuditReport clean;
  rec.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::reverse_recorder_timestamps(rec);
  AuditReport report;
  rec.audit(report);
  expect_failure_containing(report, "monotone");
}

TEST(AuditInjection, TelemetrySpanEndsBeforeItStarts) {
  SpanTracer spans(8);
  for (int i = 0; i < 5; ++i) {
    spans.record(SpanTracer::SpanKind::kDemandFetch, 0.1 * i,
                 0.1 * i + 0.05, /*user=*/1, /*item=*/i);
  }
  AuditReport clean;
  spans.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::end_span_before_start(spans);
  AuditReport report;
  spans.audit(report);
  expect_failure_containing(report, "negative duration");
}

TEST(AuditInjection, TelemetryRegistryNameSlotDesync) {
  TelemetryRegistry reg;
  reg.register_gauge("link.queue_depth");
  reg.register_gauge("link.util_ewma");
  AuditReport clean;
  reg.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::desync_registry_names(reg);
  AuditReport report;
  reg.audit(report);
  expect_failure_containing(report, "desynced");
}

TEST(AuditInjection, DivergenceDetectorCursorAheadOfRecorder) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/1, /*capacity=*/64, /*interval=*/0.25);
  const std::vector<double> row = {3.0};
  for (int i = 0; i < 20; ++i) rec.record(0.25 * i, row);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", 8.0);
  det.evaluate();
  AuditReport clean;
  det.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::advance_detector_cursor(det);
  AuditReport report;
  det.audit(report);
  expect_failure_containing(report, "staleness cursor");
}

TEST(AuditInjection, DivergenceDetectorLatchWithoutOnset) {
  TimeSeriesRecorder rec;
  rec.configure(1, 64, 0.25);
  const std::vector<double> row = {3.0};
  for (int i = 0; i < 20; ++i) rec.record(0.25 * i, row);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", 8.0);
  det.evaluate();
  AuditReport clean;
  det.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::latch_without_onset(det);
  AuditReport report;
  det.audit(report);
  expect_failure_containing(report, "onset");
}

// ---------------------------------------------------------------------------
// Report mechanics.
// ---------------------------------------------------------------------------

TEST(AuditReportTest, RequireThrowsWithScopedMessage) {
  AuditReport report;
  {
    AuditScope outer(report, "outer");
    AuditScope inner(report, "inner");
    report.check(false, "it broke");
  }
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("outer: inner: it broke"),
            std::string::npos)
      << report.summary();
  EXPECT_THROW(report.require(), ContractViolation);
}

TEST(AuditReportTest, CleanReportRequiresQuietly) {
  AuditReport report;
  report.check(true, "fine");
  EXPECT_TRUE(report.ok());
  EXPECT_NO_THROW(report.require());
  EXPECT_EQ(report.checks(), 1u);
}

}  // namespace
}  // namespace specpf
