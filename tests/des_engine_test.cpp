// Tests for the zero-allocation engine internals: a determinism differential
// against a reference (time, seq)-ordered engine (including a bulk batch
// beside a pending heap event), a cancel-heavy slab-reuse stress, and
// generation-counter ABA protection for recycled slots.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "des/simulator.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace specpf {

/// Test-only view of the engine's two ordering tiers (the library
/// befriends AuditPeer and never defines it).
struct AuditPeer {
  static std::size_t heap_entries(const Simulator& s) {
    return s.heap_.size() - Simulator::kHeapBase;
  }
  static std::size_t sorted_run_entries(const Simulator& s) {
    return s.sorted_run_.size();
  }
};

namespace {

// Reference engine with the seed implementation's semantics: closures
// ordered by (time, insertion sequence), lazy tombstone deletion. Any
// divergence between this and Simulator is an ordering bug.
class ReferenceEngine {
 public:
  using Handle = std::shared_ptr<bool>;

  Handle schedule_at(double when, std::function<void()> action) {
    auto cancelled = std::make_shared<bool>(false);
    queue_.push(Entry{when, next_seq_++, std::move(action), cancelled});
    return cancelled;
  }

  static void cancel(const Handle& handle) { *handle = true; }

  double now() const { return now_; }

  void run() {
    while (!queue_.empty()) {
      Entry entry = queue_.top();
      queue_.pop();
      if (*entry.cancelled) continue;
      now_ = entry.time;
      entry.action();
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::function<void()> action;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Drives a Simulator and a ReferenceEngine through the same schedule and
/// cancel calls, logging the ids of the events each one fires.
struct TwinEngines {
  Simulator sim;
  ReferenceEngine ref;
  std::vector<int> new_order;
  std::vector<int> ref_order;
  std::vector<EventId> new_ids;
  std::vector<ReferenceEngine::Handle> ref_ids;

  /// Schedules event `id` at `t` on both engines; every seventh event also
  /// schedules a child 1.5 later when it fires (the dynamic heap path).
  void schedule(int id, double t) {
    new_ids.push_back(sim.schedule_at(t, [this, id, t] {
      new_order.push_back(id);
      if (id % 7 == 0) {
        sim.schedule_at(t + 1.5, [this, id] {
          new_order.push_back(id + 100000);
        });
      }
    }));
    ref_ids.push_back(ref.schedule_at(t, [this, id, t] {
      ref_order.push_back(id);
      if (id % 7 == 0) {
        ref.schedule_at(t + 1.5, [this, id] {
          ref_order.push_back(id + 100000);
        });
      }
    }));
  }

  /// Schedules `n` events on a coarse time grid (so many share a
  /// timestamp), then cancels every third of them before anything runs.
  void schedule_batch(std::uint64_t seed, int n) {
    Rng rng(seed);
    const std::size_t first = new_ids.size();
    for (int i = 0; i < n; ++i) {
      schedule(static_cast<int>(first) + i,
               static_cast<double>(rng.next_u64() % 512));
    }
    for (std::size_t i = first; i < new_ids.size(); i += 3) {
      sim.cancel(new_ids[i]);
      ReferenceEngine::cancel(ref_ids[i]);
    }
  }

  void run_and_compare() {
    sim.run();
    ref.run();
    ASSERT_EQ(new_order.size(), ref_order.size());
    EXPECT_EQ(new_order, ref_order);
    EXPECT_DOUBLE_EQ(sim.now(), ref.now());
  }
};

// A scripted random workload: bulk-scheduled events (exercising the sorted
// run), duplicate timestamps (exercising the seq tie-break), cancellations,
// and events that schedule children dynamically (exercising the heap path).
// Both engines must fire the surviving events in the identical order.
TEST(EngineDifferential, ExecutionOrderMatchesReferenceEngine) {
  TwinEngines twin;
  twin.schedule_batch(/*seed=*/42, /*n=*/4000);  // above the sorted-run min
  twin.run_and_compare();
}

// A bulk window scheduled while an earlier event is still pending in the
// heap — the replay drivers' usual case, with a link completion in flight —
// must still land in the sorted tier, and pops must interleave the two
// tiers in (time, seq) order. The lone heap event ties with part of the
// batch, so the seq tie-break across tiers is exercised too.
TEST(EngineDifferential, BatchBesidePendingHeapEventUsesSortedTier) {
  TwinEngines twin;
  twin.schedule(-1, 100.0);
  twin.sim.next_event_time();  // flushes: the event is now heap-ordered
  ASSERT_EQ(AuditPeer::heap_entries(twin.sim), 1u);

  constexpr int kBatch = 3000;
  twin.schedule_batch(/*seed=*/7, kBatch);
  twin.sim.next_event_time();  // flushes the batch
  EXPECT_EQ(AuditPeer::sorted_run_entries(twin.sim),
            static_cast<std::size_t>(kBatch));
  EXPECT_EQ(AuditPeer::heap_entries(twin.sim), 1u);
  AuditReport report;
  twin.sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();

  twin.run_and_compare();
}

// Full-stack determinism: identical seeds must give bit-identical metrics
// through caches, predictor, policy, and the shared PS server.
TEST(EngineDifferential, ProxySimMetricsAreReproducible) {
  ProxySimConfig config;
  config.num_users = 4;
  config.duration = 150.0;
  config.warmup = 20.0;
  config.seed = 7;

  ThresholdPolicy policy_a(core::InteractionModel::kModelA);
  ThresholdPolicy policy_b(core::InteractionModel::kModelA);
  const ProxySimResult a = run_proxy_sim(config, policy_a);
  const ProxySimResult b = run_proxy_sim(config, policy_b);

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.demand_jobs, b.demand_jobs);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
  EXPECT_EQ(a.inflight_hits, b.inflight_hits);
  EXPECT_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.server_utilization, b.server_utilization);
  EXPECT_EQ(a.retrieval_time_per_request, b.retrieval_time_per_request);
  EXPECT_EQ(a.hprime_estimate, b.hprime_estimate);
}

// Cancel-heavy slab churn: waves of schedule/cancel force tombstone
// compaction and free-list reuse; counts must stay exact throughout.
TEST(EngineStress, CancelWavesReuseSlots) {
  Simulator sim;
  Rng rng(3);
  std::uint64_t expected = 0;
  double horizon = 0.0;
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<EventId> ids;
    ids.reserve(5000);
    for (int i = 0; i < 5000; ++i) {
      const double t = horizon + rng.next_double() * 10.0;
      ids.push_back(sim.schedule_at(t, [] {}));
    }
    // Cancel two thirds — beyond the half-dead compaction threshold.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 3 != 0) sim.cancel(ids[i]);
    }
    expected += (ids.size() + 2) / 3;
    horizon += 10.0;
    sim.run_until(horizon);
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), expected);
  EXPECT_EQ(sim.pending(), 0u);
}

// A handle kept across its event's execution and the slot's reuse must not
// cancel the slot's new occupant (generation/ABA protection).
TEST(EngineStress, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;

  const EventId stale = sim.schedule_at(1.0, [&] { first_fired = true; });
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(first_fired);

  // The slot freed by the fired event is recycled for the next schedule.
  sim.schedule_at(2.0, [&] { second_fired = true; });
  sim.cancel(stale);  // must be a no-op
  sim.cancel(stale);  // idempotent
  sim.run();
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(sim.events_executed(), 2u);
}

// Same protection when the first event is cancelled (not fired): collecting
// the tombstone releases the slot; the stale handle must stay dead.
TEST(EngineStress, StaleHandleAfterCancelAndReuse) {
  Simulator sim;
  bool victim_fired = false;
  bool survivor_fired = false;

  const EventId victim = sim.schedule_at(1.0, [&] { victim_fired = true; });
  sim.cancel(victim);
  sim.run();  // collects the tombstone, releasing the slot
  EXPECT_FALSE(victim_fired);

  sim.schedule_at(2.0, [&] { survivor_fired = true; });
  sim.cancel(victim);  // stale generation — no-op
  sim.run();
  EXPECT_TRUE(survivor_fired);
}

// InlineFunction is move-only, so move-only captures now work (they could
// not with std::function).
TEST(EngineActions, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule_at(1.0, [p = std::move(payload), &seen] { seen = *p + 1; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

// Cancelling mid-run events scheduled into the sorted run (bulk load) and
// the heap (dynamic) in the same simulation.
TEST(EngineStress, CancelAcrossBothTiers) {
  Simulator sim;
  std::vector<EventId> bulk;
  bulk.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    bulk.push_back(
        sim.schedule_at(static_cast<double>(i % 97) + 1.0, [] {}));
  }
  EXPECT_TRUE(sim.step());  // builds the sorted run
  // Cancel bulk events (now in the sorted run) and add heap-side events.
  std::vector<EventId> dynamic;
  for (int i = 0; i < 500; ++i) {
    dynamic.push_back(sim.schedule_at(50.0 + 0.001 * i, [] {}));
  }
  for (std::size_t i = 0; i < bulk.size(); i += 2) sim.cancel(bulk[i]);
  for (std::size_t i = 0; i < dynamic.size(); i += 2) sim.cancel(dynamic[i]);
  sim.run();
  // bulk[0] fired in step(); its cancel is a stale no-op. Of the 1999
  // remaining bulk events, the 999 other even indices are cancelled, leaving
  // 1000; of the 500 dynamic events, 250 survive.
  EXPECT_EQ(sim.events_executed(), 1u + 1000u + 250u);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace specpf
