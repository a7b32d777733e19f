// Audit-layer tests: clean structures sweep clean, corrupted structures get
// caught. The corruption half works through AuditPeer (declared in
// util/audit.hpp, defined only here, friend of every auditable structure):
// each test builds a healthy structure, verifies audit() reports nothing,
// injects exactly the defect class the walker exists to catch — a stale
// generation or scribbled freed slot in the engine slab, a broken intrusive
// chain or desynced residency entry in the cache arenas, a free-list cycle,
// successor-total drift in the context arena, a misranked or stale entry
// in a ranked successor prefix, metadata corruption in the
// robin-hood tables, a demand-count desync in the stack — and asserts the
// sweep fails with a message naming the defect.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_plane.hpp"
#include "cache/factory.hpp"
#include "des/simulator.hpp"
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

  // --- context arena ------------------------------------------------------
  static void drift_successor_total(ContextArena& a, ContextArena::CtxId c) {
    ++a.total_[c];  // context total no longer equals the successor-count sum
  }
  static void orphan_successor(ContextArena& a, ContextArena::CtxId c) {
    a.head_[c] = ContextArena::kNoSucc;  // leak the whole successor chain
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
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static std::uint32_t freed_tracked_slot(const Simulator& s) {
    for (std::uint32_t slot = s.free_head_; slot != kNoSlot;
         slot = s.node_at(slot).next_free) {
      if (slot < s.poisoned_.size() && s.poisoned_[slot]) return slot;
    }
    return kNoSlot;
  }
  static void rollback_generation(Simulator& s, std::uint32_t slot) {
    --s.node_at(slot).generation;  // forge a reusable stale handle
  }
  static void scribble_freed_slot(Simulator& s, std::uint32_t slot) {
    // A write through a stale handle lands in freed storage: simulate the
    // scribble by repainting the poison fill.
    s.node_at(slot).action.poison_storage(0xAB);
  }
  static void cycle_engine_free_list(Simulator& s) {
    s.node_at(s.free_head_).next_free = s.free_head_;
  }
  static void desync_tombstone_count(Simulator& s) { ++s.dead_in_heap_; }
  static bool break_pending_order(Simulator& s) {
    if (s.sorted_run_.size() >= 2) {
      std::swap(s.sorted_run_.front(), s.sorted_run_.back());
      return true;
    }
    if (s.heapified_ > Simulator::kHeapBase + 1) {
      s.heap_[Simulator::kHeapBase].time += 1e9;
      return true;
    }
    return false;
  }

  // --- stack runtime ------------------------------------------------------
  static void desync_demand_count(StackRuntime& rt) {
    ++rt.demand_inflight_[0];
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
  static void unbalance_span_counters(SpanTracer& t) {
    ++t.closes_;  // closes no longer reconcile with opens/overwrites
  }
  static void desync_registry_names(TelemetryRegistry& r) {
    r.counter_names_.pop_back();  // slot with no name
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
    // slab + FlatIndexMap arenas; both variants of every policy.
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

TEST(AuditClean, EngineScheduleCancelRunSweepsClean) {
  Simulator sim;
  sim.enable_audit_mode();
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(sim.schedule_at(0.01 * (i + 1), [&fired] { ++fired; }));
  }
  for (int i = 0; i < 500; i += 3) sim.cancel(ids[i]);
  sim.run_until(2.0);  // executes ~2/5 of the live events
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
  EXPECT_GT(fired, 0);
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

TEST(AuditInjection, ContextArenaSuccessorTotalDrift) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(0xABCDu);
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

TEST(AuditInjection, ContextArenaOrphanedSuccessorChain) {
  ContextArena arena;
  const ContextArena::CtxId ctx = arena.intern(0x1234u);
  for (std::uint64_t item = 0; item < 8; ++item) {
    arena.add(ctx, arena.intern_item(item));
  }
  AuditPeer::orphan_successor(arena, ctx);
  AuditReport report;
  arena.audit(report);
  EXPECT_FALSE(report.ok()) << "orphaned successor slots were not detected";
}

/// A context with six successors of distinct counts (item i seen i + 1
/// times) behind a stride-4 prefix. The stride is set after one add per
/// item, so the later adds maintain the prefix incrementally.
ContextArena::CtxId seeded_ranked_prefix(ContextArena& arena,
                                         RankedPrefix& ranks) {
  const ContextArena::CtxId ctx = arena.intern(0x77u);
  for (std::uint64_t item = 0; item < 6; ++item) {
    ranks.on_add(arena, ctx, item, arena.add(ctx, arena.intern_item(item)));
  }
  EXPECT_EQ(ranks.top(arena, ctx, 4).size(), 4u);
  for (std::uint64_t item = 0; item < 6; ++item) {
    for (std::uint64_t n = 0; n < item; ++n) {
      ranks.on_add(arena, ctx, item, arena.add(ctx, arena.intern_item(item)));
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

TEST(AuditInjection, EngineStaleGeneration) {
  Simulator sim;
  seed_engine(sim);
  const std::uint32_t slot = AuditPeer::freed_tracked_slot(sim);
  ASSERT_NE(slot, AuditPeer::kNoSlot);
  AuditReport clean;
  sim.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::rollback_generation(sim, slot);
  AuditReport report;
  sim.audit(report);
  expect_failure_containing(report, "generation");
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

TEST(AuditInjection, EngineTombstoneCountDesync) {
  Simulator sim;
  seed_engine(sim);
  AuditPeer::desync_tombstone_count(sim);
  AuditReport report;
  sim.audit(report);
  EXPECT_FALSE(report.ok()) << "tombstone-count desync was not detected";
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

TEST(AuditInjection, StackRuntimeDemandCountDesync) {
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
  AuditReport clean;
  runtime.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::desync_demand_count(runtime);
  AuditReport report;
  runtime.audit(report);
  expect_failure_containing(report, "demand");
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

TEST(AuditInjection, TelemetrySpanBalanceBroken) {
  SpanTracer spans;
  spans.configure(8);
  for (int i = 0; i < 5; ++i) {
    const auto ref = spans.open(SpanTracer::SpanKind::kDemandFetch,
                                0.1 * i, /*user=*/1, /*item=*/i);
    spans.close(ref, 0.1 * i + 0.05);
  }
  AuditReport clean;
  spans.audit(clean);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  AuditPeer::unbalance_span_counters(spans);
  AuditReport report;
  spans.audit(report);
  expect_failure_containing(report, "span balance");
}

TEST(AuditInjection, TelemetryRegistryNameSlotDesync) {
  TelemetryRegistry reg;
  reg.register_counter("req.count");
  reg.register_counter("req.hit");
  reg.register_gauge("link.queue_depth");
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
