// Tests for the zero-allocation engine internals: a determinism differential
// against a reference (time, seq)-ordered engine (including a bulk batch
// beside a pending heap event), a slab-reuse stress across chunks, the
// re-armable timer tier (a seeded differential against a reference that
// withdraws and reschedules an event per arm, re-arming
// and adding timers from inside actions, the epoch hook, and seq
// renumbering with a timer armed), and the arrival stream (a seeded
// differential against one schedule_at per push, beside events and timers,
// the epoch hook, seq renumbering with entries pending, and the push-order
// contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "des/simulator.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace specpf {

/// Test-only view of the engine's seq counter and slab size (the library
/// befriends AuditPeer and never defines it).
struct AuditPeer {
  static std::size_t slots(const Simulator& s) { return s.slab_.size(); }
  static std::uint64_t max_seq() { return Simulator::kMaxSeq; }
  static std::uint64_t next_seq(const Simulator& s) { return s.next_seq_; }
  static void set_next_seq(Simulator& s, std::uint64_t seq) {
    s.next_seq_ = seq;
  }
};

namespace {

// Reference engine with the seed implementation's semantics: closures
// ordered by (time, insertion sequence). It keeps a cancel (cancelled
// entries are skipped when popped) so the timer differentials can model
// each arm as cancel + schedule_at. Any divergence between this and
// Simulator is an ordering bug.
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
  std::uint64_t executed() const { return executed_; }

  void run() {
    while (!queue_.empty()) {
      Entry entry = queue_.top();
      queue_.pop();
      if (*entry.cancelled) continue;
      now_ = entry.time;
      ++executed_;
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
  std::uint64_t executed_ = 0;
};

/// Drives a Simulator and a ReferenceEngine through the same schedule
/// calls, logging the ids of the events each one fires.
struct TwinEngines {
  Simulator sim;
  ReferenceEngine ref;
  std::vector<int> new_order;
  std::vector<int> ref_order;
  int scheduled = 0;

  /// Schedules event `id` at `t` on both engines; every seventh event also
  /// schedules a child 1.5 later when it fires (the dynamic heap path).
  void schedule(int id, double t) {
    ++scheduled;
    sim.schedule_at(t, [this, id, t] {
      new_order.push_back(id);
      if (id % 7 == 0) {
        sim.schedule_at(t + 1.5, [this, id] {
          new_order.push_back(id + 100000);
        });
      }
    });
    ref.schedule_at(t, [this, id, t] {
      ref_order.push_back(id);
      if (id % 7 == 0) {
        ref.schedule_at(t + 1.5, [this, id] {
          ref_order.push_back(id + 100000);
        });
      }
    });
  }

  /// Schedules `n` events on a coarse time grid, so many share a timestamp.
  void schedule_batch(std::uint64_t seed, int n) {
    Rng rng(seed);
    const int first = scheduled;
    for (int i = 0; i < n; ++i) {
      schedule(first + i, static_cast<double>(rng.next_u64() % 512));
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

// A scripted random workload: bulk-scheduled events, duplicate timestamps
// (exercising the seq tie-break), and events that schedule children
// dynamically. Both engines must fire every event in the identical order.
TEST(EngineDifferential, ExecutionOrderMatchesReferenceEngine) {
  TwinEngines twin;
  twin.schedule_batch(/*seed=*/42, /*n=*/4000);
  twin.run_and_compare();
}

// A bulk batch scheduled while an earlier event is already pending — a
// driver's usual case, with a link completion in flight. The lone early
// event ties with part of the batch, so the seq tie-break between it and
// the batch is exercised too.
TEST(EngineDifferential, BatchBesidePendingHeapEvent) {
  TwinEngines twin;
  twin.schedule(-1, 100.0);
  EXPECT_EQ(twin.sim.next_event_time(), 100.0);

  twin.schedule_batch(/*seed=*/7, /*n=*/3000);
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

// Slab churn: overlapping waves of schedule-then-fire. Each wave schedules
// 6000 events over the next 20 time units and runs 10 units, so about half
// stay pending into the next wave and executed slots are recycled through
// the free list across slab chunks (4096 nodes each). Counts stay exact
// throughout, the slab never outgrows the peak pending count, and the
// drained engine audits clean.
TEST(EngineStress, ScheduleWavesReuseSlots) {
  Simulator sim;
  Rng rng(3);
  std::vector<double> times;
  std::size_t peak = 0;
  double horizon = 0.0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 6000; ++i) {
      times.push_back(horizon + rng.next_double() * 20.0);
      sim.schedule_at(times.back(), [] {});
    }
    peak = std::max(peak, sim.pending());
    horizon += 10.0;
    sim.run_until(horizon);
    const auto due = std::count_if(times.begin(), times.end(),
                                   [&](double t) { return t <= horizon; });
    ASSERT_EQ(sim.events_executed(), static_cast<std::uint64_t>(due));
    ASSERT_EQ(sim.pending(), times.size() - static_cast<std::size_t>(due));
  }
  EXPECT_GT(peak, 4096u) << "the waves never span two slab chunks";
  EXPECT_EQ(AuditPeer::slots(sim), peak);
  sim.run();
  EXPECT_EQ(sim.events_executed(), times.size());
  EXPECT_EQ(sim.pending(), 0u);
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
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

// --- Re-armable timers -----------------------------------------------------

constexpr int kScriptTimers = 3;

/// What fired, in order: ('e', event id) or ('t', timer index), and when.
using FireLog = std::vector<std::tuple<char, int, double>>;

/// `count` seeded random steps of the timer script, shared by both sides:
/// each a schedule_at, an arm (half the steps) or a disarm. Times sit on a
/// 0.5 grid from now, delay 0 included, so many entries tie and the seq
/// tie-break decides. `budget` bounds the whole script so the run drains.
template <typename Side>
void random_timer_ops(Side& side, int count) {
  for (int i = 0; i < count && side.budget > 0; ++i, --side.budget) {
    Rng& rng = side.rng;
    const double when =
        side.now() + 0.5 * static_cast<double>(rng.next_u64() % 8);
    const int timer = static_cast<int>(rng.next_u64() % kScriptTimers);
    switch (rng.next_u64() % 4) {
      case 0:
        side.schedule(when);
        break;
      case 1:
      case 2:
        side.arm(timer, when);
        break;
      default:
        side.disarm(timer);
        break;
    }
  }
}

/// The engine under test: timers through add_timer/arm_timer/disarm_timer.
struct TimerSimSide {
  Simulator sim;
  Rng rng;
  int budget;
  int events = 0;
  std::vector<TimerId> timers;
  FireLog log;

  TimerSimSide(std::uint64_t seed, int script_budget)
      : rng(seed), budget(script_budget) {
    for (int k = 0; k < kScriptTimers; ++k) {
      timers.push_back(sim.add_timer([this, k] { fired('t', k); }));
    }
  }
  double now() const { return sim.now(); }
  void schedule(double when) {
    const int id = events++;
    sim.schedule_at(when, [this, id] { fired('e', id); });
  }
  void arm(int k, double when) { sim.arm_timer(timers[k], when); }
  void disarm(int k) { sim.disarm_timer(timers[k]); }
  void fired(char kind, int id) {
    log.emplace_back(kind, id, sim.now());
    random_timer_ops(*this, 3);
  }
};

/// The reference: each arm is cancel + schedule_at, each disarm a cancel.
struct TimerRefSide {
  ReferenceEngine ref;
  Rng rng;
  int budget;
  int events = 0;
  std::vector<ReferenceEngine::Handle> timers =
      std::vector<ReferenceEngine::Handle>(kScriptTimers);
  FireLog log;

  TimerRefSide(std::uint64_t seed, int script_budget)
      : rng(seed), budget(script_budget) {}
  double now() const { return ref.now(); }
  void schedule(double when) {
    const int id = events++;
    ref.schedule_at(when, [this, id] { fired('e', id); });
  }
  void arm(int k, double when) {
    disarm(k);
    timers[k] = ref.schedule_at(when, [this, k] { fired('t', k); });
  }
  void disarm(int k) {
    if (timers[k]) ReferenceEngine::cancel(timers[k]);
  }
  void fired(char kind, int id) {
    log.emplace_back(kind, id, ref.now());
    random_timer_ops(*this, 3);
  }
};

// Random interleavings of schedule_at, arm_timer and disarm_timer,
// issued before the run and from inside firing events and timers (a timer
// may re-arm or disarm itself), must fire in the reference engine's order
// at the same times with the same events_executed(). The bulk prefix keeps
// the heap deep while timers fire beside it.
TEST(EngineTimers, DifferentialAgainstCancelAndReschedule) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr int kBudget = 20000;
    TimerSimSide fast(seed, kBudget);
    TimerRefSide slow(seed, kBudget);
    for (int i = 0; i < 1500; ++i) {
      const double when = static_cast<double>(fast.rng.next_u64() % 256);
      slow.rng.next_u64();
      fast.schedule(when);
      slow.schedule(when);
    }
    random_timer_ops(fast, 200);
    random_timer_ops(slow, 200);
    // Stop partway once so the epoch hook sees a mid-run state.
    fast.sim.run_until(64.0);
    AuditReport report;
    fast.sim.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    fast.sim.run();
    slow.ref.run();
    ASSERT_EQ(fast.log.size(), slow.log.size());
    EXPECT_EQ(fast.log, slow.log);
    EXPECT_EQ(fast.sim.events_executed(), slow.ref.executed());
    EXPECT_EQ(fast.sim.events_executed(), fast.log.size());
    EXPECT_EQ(fast.sim.pending(), 0u);
    std::size_t timer_fires = 0;
    for (const auto& fire : fast.log) timer_fires += std::get<0>(fire) == 't';
    EXPECT_GT(timer_fires, 50u) << "the script barely fired a timer";
  }
}

TEST(EngineTimers, ReArmsFromInsideItsOwnAction) {
  Simulator sim;
  std::vector<double> fires;
  TimerId timer;
  timer = sim.add_timer([&] {
    fires.push_back(sim.now());
    if (fires.size() < 3) sim.arm_timer(timer, sim.now() + 1.0);
  });
  sim.arm_timer(timer, 0.5);
  sim.arm_timer(timer, 0.25);  // a re-arm replaces the earlier arming
  sim.run();
  EXPECT_EQ(fires, (std::vector<double>{0.25, 1.25, 2.25}));
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

// Timers live in chunks that never move, so a timer action may add timers
// past a chunk boundary (16 per chunk) and keep running in place.
TEST(EngineTimers, AddsTimersFromInsideATimerAction) {
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerId> added;
  const TimerId first = sim.add_timer([&] {
    for (int k = 0; k < 40; ++k) {
      added.push_back(sim.add_timer([&order, k] { order.push_back(k); }));
      sim.arm_timer(added.back(), 2.0 + static_cast<double>(39 - k));
    }
    order.push_back(-1);
  });
  sim.arm_timer(first, 1.0);
  sim.run();
  ASSERT_EQ(order.size(), 41u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 1; i <= 40; ++i) EXPECT_EQ(order[i], 40 - i);
  // Released timers are recycled by the next add.
  sim.release_timer(added[5]);
  const TimerId reused = sim.add_timer([] {});
  sim.arm_timer(reused, sim.now() + 1.0);
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  sim.run();
  EXPECT_EQ(sim.events_executed(), 42u);
}

TEST(EngineTimers, NextEventTimeSeesALoneTimer) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Simulator sim;
  const TimerId timer = sim.add_timer([] {});
  EXPECT_EQ(sim.next_event_time(), kInf);
  sim.arm_timer(timer, 3.0);
  EXPECT_EQ(sim.next_event_time(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.arm_timer(timer, 2.0);
  EXPECT_EQ(sim.next_event_time(), 2.0);
  sim.disarm_timer(timer);
  EXPECT_EQ(sim.next_event_time(), kInf);
  EXPECT_EQ(sim.pending(), 0u);
  sim.arm_timer(timer, 4.0);
  sim.run_until(3.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.next_event_time(), 4.0);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.now(), 4.0);
  EXPECT_EQ(sim.next_event_time(), kInf);
}

// Seq exhaustion renumbers armed timers with the pending entries, keeping
// their relative order; here the renumber is triggered by an arm.
TEST(EngineTimers, SeqRenumberingKeepsArmedTimersInOrder) {
  Simulator sim;
  std::string order;
  const TimerId t1 = sim.add_timer([&order] { order += '1'; });
  const TimerId t2 = sim.add_timer([&order] { order += '2'; });
  AuditPeer::set_next_seq(sim, AuditPeer::max_seq() - 3);
  sim.schedule_at(1.0, [&order] { order += 'a'; });
  sim.arm_timer(t1, 1.0);
  sim.schedule_at(1.0, [&order] { order += 'b'; });
  sim.arm_timer(t2, 1.0);  // next seq is kMaxSeq: renumbers first
  EXPECT_EQ(AuditPeer::next_seq(sim), 4u);
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  sim.run();
  EXPECT_EQ(order, "a1b2");
}

// --- Arrival stream ---------------------------------------------------------

/// What fired, in order: kind ('e' event, 't' timer, 'a' arrival), id
/// (event id or timer index, 0 for an arrival), the two arrival payload
/// words (0 otherwise) and when.
using ArrivalLog =
    std::vector<std::tuple<char, int, std::uint64_t, std::uint64_t, double>>;

/// `count` seeded random steps of the arrival script, shared by both sides:
/// a schedule_at, an arm or a disarm of a timer, or (half the steps) an
/// arrival push. Times sit on a 0.5 grid
/// from now, so many entries tie across all three tiers; a push is lifted
/// to the last push time, which keeps the arrivals in order.
template <typename Side>
void random_arrival_ops(Side& side, int count) {
  for (int i = 0; i < count && side.budget > 0; ++i, --side.budget) {
    Rng& rng = side.rng;
    const double when =
        side.now() + 0.5 * static_cast<double>(rng.next_u64() % 8);
    const int timer = static_cast<int>(rng.next_u64() % kScriptTimers);
    switch (rng.next_u64() % 6) {
      case 0:
        side.schedule(when);
        break;
      case 1:
        side.arm(timer, when);
        break;
      case 2:
        side.disarm(timer);
        break;
      default: {
        side.last_push = std::max(when, side.last_push);
        side.push(side.last_push, rng.next_u64() % 1000, ++side.pushes);
        break;
      }
    }
  }
}

/// The engine under test: arrivals through bind_arrivals/push_arrival.
struct ArrivalSimSide {
  Simulator sim;
  Rng rng;
  int budget;
  std::uint64_t pushes = 0;
  double last_push = 0.0;
  int events = 0;
  std::vector<TimerId> timers;
  ArrivalLog log;

  ArrivalSimSide(std::uint64_t seed, int script_budget)
      : rng(seed), budget(script_budget) {
    for (int k = 0; k < kScriptTimers; ++k) {
      timers.push_back(sim.add_timer([this, k] { fired('t', k, 0, 0); }));
    }
    sim.bind_arrivals(
        [this](std::uint64_t a, std::uint64_t b) { fired('a', 0, a, b); });
  }
  double now() const { return sim.now(); }
  void schedule(double when) {
    const int id = events++;
    sim.schedule_at(when, [this, id] { fired('e', id, 0, 0); });
  }
  void arm(int k, double when) { sim.arm_timer(timers[k], when); }
  void disarm(int k) { sim.disarm_timer(timers[k]); }
  void push(double when, std::uint64_t a, std::uint64_t b) {
    sim.push_arrival(when, a, b);
  }
  void fired(char kind, int id, std::uint64_t a, std::uint64_t b) {
    log.emplace_back(kind, id, a, b, sim.now());
    random_arrival_ops(*this, 3);
  }
};

/// The reference: each push is a schedule_at of the handler call; timers
/// are cancel + schedule_at as in the timer differential.
struct ArrivalRefSide {
  ReferenceEngine ref;
  Rng rng;
  int budget;
  std::uint64_t pushes = 0;
  double last_push = 0.0;
  int events = 0;
  std::vector<ReferenceEngine::Handle> timers =
      std::vector<ReferenceEngine::Handle>(kScriptTimers);
  ArrivalLog log;

  ArrivalRefSide(std::uint64_t seed, int script_budget)
      : rng(seed), budget(script_budget) {}
  double now() const { return ref.now(); }
  void schedule(double when) {
    const int id = events++;
    ref.schedule_at(when, [this, id] { fired('e', id, 0, 0); });
  }
  void arm(int k, double when) {
    disarm(k);
    timers[k] = ref.schedule_at(when, [this, k] { fired('t', k, 0, 0); });
  }
  void disarm(int k) {
    if (timers[k]) ReferenceEngine::cancel(timers[k]);
  }
  void push(double when, std::uint64_t a, std::uint64_t b) {
    ref.schedule_at(when, [this, a, b] { fired('a', 0, a, b); });
  }
  void fired(char kind, int id, std::uint64_t a, std::uint64_t b) {
    log.emplace_back(kind, id, a, b, ref.now());
    random_arrival_ops(*this, 3);
  }
};

// Arrivals beside events and timers, with pushes, schedules, arms and
// disarms issued before the run and from inside firing events, timers and
// arrival handlers (a handler may push further arrivals). Every fire must
// match the reference in order, time and payload, with the same
// events_executed(); a run_until partway is audited.
TEST(EngineArrivals, DifferentialAgainstScheduledCalls) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    constexpr int kBudget = 20000;
    ArrivalSimSide fast(seed, kBudget);
    ArrivalRefSide slow(seed, kBudget);
    // A time-sorted prefix of arrivals, interleaved with heap events.
    for (int i = 0; i < 1500; ++i) {
      const double when = 0.25 * static_cast<double>(i / 4);
      fast.last_push = slow.last_push = when;
      fast.push(when, static_cast<std::uint64_t>(i), ++fast.pushes);
      slow.push(when, static_cast<std::uint64_t>(i), ++slow.pushes);
      if (i % 5 == 0) {
        fast.schedule(when);
        slow.schedule(when);
      }
    }
    random_arrival_ops(fast, 200);
    random_arrival_ops(slow, 200);
    fast.sim.run_until(64.0);
    AuditReport report;
    fast.sim.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
    fast.sim.run();
    slow.ref.run();
    ASSERT_EQ(fast.log.size(), slow.log.size());
    EXPECT_EQ(fast.log, slow.log);
    EXPECT_EQ(fast.sim.events_executed(), slow.ref.executed());
    EXPECT_EQ(fast.sim.events_executed(), fast.log.size());
    EXPECT_EQ(fast.sim.pending(), 0u);
    // The prefix ends at 93.5, so arrivals after 94 are script pushes,
    // almost all of them issued from inside firing entries.
    std::size_t late_arrivals = 0;
    for (const auto& fire : fast.log) {
      late_arrivals += std::get<0>(fire) == 'a' && std::get<4>(fire) > 94.0;
    }
    EXPECT_GT(late_arrivals, 1000u)
        << "the script barely pushed from inside a handler";
  }
}

TEST(EngineArrivals, NextEventTimeSeesALoneArrival) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Simulator sim;
  sim.bind_arrivals([](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(sim.next_event_time(), kInf);
  sim.push_arrival(3.0, 0, 0);
  EXPECT_EQ(sim.next_event_time(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.next_event_time(), 3.0);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.next_event_time(), kInf);
  EXPECT_EQ(sim.pending(), 0u);
}

// Seq exhaustion renumbers pending arrivals with the heap and the armed
// timers, keeping their relative order; here a push triggers it.
TEST(EngineArrivals, SeqRenumberingKeepsArrivalsInOrder) {
  Simulator sim;
  std::string order;
  sim.bind_arrivals([&order](std::uint64_t a, std::uint64_t) {
    order += static_cast<char>(a);
  });
  const TimerId timer = sim.add_timer([&order] { order += 't'; });
  AuditPeer::set_next_seq(sim, AuditPeer::max_seq() - 5);
  sim.push_arrival(1.0, 'a', 0);
  sim.schedule_at(1.0, [&order] { order += 'e'; });
  sim.push_arrival(1.0, 'b', 0);
  sim.arm_timer(timer, 1.0);
  sim.push_arrival(1.0, 'c', 0);
  sim.push_arrival(1.0, 'd', 0);  // next seq is kMaxSeq: renumbers first
  EXPECT_EQ(AuditPeer::next_seq(sim), 6u);
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  sim.run();
  EXPECT_EQ(order, "aebtcd");
}

TEST(EngineArrivals, OutOfOrderPushIsRejected) {
  Simulator sim;
  sim.bind_arrivals([](std::uint64_t, std::uint64_t) {});
  sim.push_arrival(2.0, 0, 0);
  EXPECT_THROW(sim.push_arrival(1.0, 0, 0), ContractViolation);
  sim.run();
  sim.push_arrival(2.5, 0, 0);
  sim.run_until(3.0);
  EXPECT_THROW(sim.push_arrival(2.75, 0, 0), ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
  AuditReport report;
  sim.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EngineArrivals, BindsOneHandlerOnce) {
  Simulator sim;
  EXPECT_THROW(sim.bind_arrivals(Simulator::ArrivalAction{}), ContractViolation);
  sim.bind_arrivals([](std::uint64_t, std::uint64_t) {});
  EXPECT_THROW(sim.bind_arrivals([](std::uint64_t, std::uint64_t) {}),
               ContractViolation);
}

}  // namespace
}  // namespace specpf
