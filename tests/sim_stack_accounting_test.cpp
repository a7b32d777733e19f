// Regression tests for the StackRuntime warmup/idle-link accounting fixes,
// driven through scripted DES scenarios with hand-computable timings:
//  1. wasted_evictions_ is reset at begin_measurement(), so warmup
//     evictions never leak into ProxySimResult::wasted_prefetch_evictions.
//  2. A demand miss that attaches to an in-flight prefetch promotes it to
//     demand, so the idle-link rule defers further prefetch dispatch while
//     the user is blocked.
//  3. A retrieval submitted during warmup but completing inside the
//     measurement window is counted in retrieval metrics (measuring_ is
//     re-read at completion).
//  4. A user with two demand fetches in flight defers the prefetches of
//     both requests until the second lands, then dispatches them in
//     selection order and leaves the blocked-user table.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/stack_runtime.hpp"
#include "util/audit.hpp"

namespace specpf {
namespace {

using core::Candidate;

/// Returns exactly the candidates set via set(); lets a test script the
/// prefetch decisions of each request.
class ScriptedPredictor final : public PredictorPlane {
 public:
  void observe(UserId, std::uint64_t) override {}
  void predict_into(UserId, std::size_t,
                    std::vector<Candidate>& out) const override {
    out = next_;
  }
  void set(std::vector<Candidate> next) { next_ = std::move(next); }

 private:
  std::vector<Candidate> next_;
};

TEST(StackAccounting, WarmupEvictionsDoNotLeakIntoMeasurement) {
  Simulator sim;
  ScriptedPredictor predictor;
  FixedThresholdPolicy policy(0.01);  // prefetch everything scripted
  StackRuntimeConfig cfg;
  cfg.bandwidth = 1000.0;  // transfers complete almost instantly
  cfg.num_users = 1;
  cfg.cache_capacity = 2;
  StackRuntime runtime(sim, predictor, policy, std::move(cfg));

  // Warmup: each request prefetches a never-touched item; capacity 2
  // guarantees untagged (wasted) evictions.
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(0.1 * (i + 1), [&runtime, &predictor, i] {
      predictor.set({Candidate{static_cast<std::uint64_t>(100 + i), 0.9}});
      runtime.handle_request(0, static_cast<std::uint64_t>(i));
    });
  }
  sim.schedule_at(2.0, [&runtime] { runtime.begin_measurement(); });
  sim.run();

  const ServerStats horizon = runtime.snapshot_server();
  const ProxySimResult quiet = runtime.finalize(horizon, "scripted");
  // All evictions happened during warmup; the measured window must be clean.
  EXPECT_EQ(quiet.wasted_prefetch_evictions, 0u);

  // Same churn after begin_measurement() must still be counted.
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(3.0 + 0.1 * i, [&runtime, &predictor, i] {
      predictor.set({Candidate{static_cast<std::uint64_t>(200 + i), 0.9}});
      runtime.handle_request(0, static_cast<std::uint64_t>(10 + i));
    });
  }
  sim.run();
  const ProxySimResult busy = runtime.finalize(runtime.snapshot_server(),
                                               "scripted");
  EXPECT_GT(busy.wasted_prefetch_evictions, 0u);
}

TEST(StackAccounting, DemandMissAttachingToPrefetchDefersNewPrefetches) {
  // bandwidth 1, item size 1: a transfer alone takes exactly 1s; two
  // concurrent transfers share the PS link at rate 1/2 each.
  Simulator sim;
  ScriptedPredictor predictor;
  FixedThresholdPolicy policy(0.01);
  StackRuntimeConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.item_size = 1.0;
  cfg.num_users = 1;
  cfg.cache_capacity = 8;
  StackRuntime runtime(sim, predictor, policy, std::move(cfg));
  runtime.begin_measurement();

  // t=0: demand miss on item 1; prefetch of 2 is deferred (demand in
  // flight), dispatches at t=1 when the demand lands, so prefetch 2 is in
  // flight alone over (1, 2).
  sim.schedule_at(0.0, [&] {
    predictor.set({Candidate{2, 0.9}});
    runtime.handle_request(0, 1);
  });
  // t=1.5: demand miss on item 2 attaches to the in-flight prefetch — the
  // user is now blocked on it. The scripted prefetch of item 3 must be
  // deferred until t=2.0; if it dispatched now, PS sharing would stretch
  // prefetch 2's completion to t=2.5 and the inflight wait to 1.0s.
  sim.schedule_at(1.5, [&] {
    predictor.set({Candidate{3, 0.9}});
    runtime.handle_request(0, 2);
  });
  sim.run();

  const ProxySimResult r = runtime.finalize(runtime.snapshot_server(),
                                            "scripted");
  EXPECT_EQ(r.inflight_hits, 1u);
  EXPECT_DOUBLE_EQ(r.mean_inflight_wait, 0.5);
  EXPECT_EQ(r.prefetch_jobs, 2u);  // items 2 and 3 both still prefetched
  EXPECT_EQ(r.demand_jobs, 1u);    // item 1 only; item 2 stayed a prefetch
}

TEST(StackAccounting, WarmupSubmittedRetrievalCompletingInWindowIsCounted) {
  Simulator sim;
  ScriptedPredictor predictor;  // returns {} until set: no prefetches
  NoPrefetchPolicy policy;
  StackRuntimeConfig cfg;
  cfg.bandwidth = 1.0;  // 1s transfer
  cfg.num_users = 1;
  StackRuntime runtime(sim, predictor, policy, std::move(cfg));

  // Demand submitted at t=0 (warmup), completes at t=1.0 — inside the
  // measurement window that starts at t=0.5.
  sim.schedule_at(0.0, [&] { runtime.handle_request(0, 7); });
  sim.schedule_at(0.5, [&runtime] { runtime.begin_measurement(); });
  sim.run();

  const ProxySimResult r = runtime.finalize(runtime.snapshot_server(),
                                            "scripted");
  EXPECT_EQ(r.demand_jobs, 1u);
  // The request itself fired pre-window, so it is (correctly) not a
  // measured access.
  EXPECT_EQ(r.requests, 0u);
}

TEST(StackAccounting, TwoBlockingDemandsDeferPrefetchesUntilTheLastLands) {
  // bandwidth 1, item size 1: demand 1 (t=0) runs alone until t=0.5, then
  // shares the PS link with demand 2 and lands at t=1.5; demand 2 then
  // runs alone and lands at t=2.0.
  Simulator sim;
  ScriptedPredictor predictor;
  FixedThresholdPolicy policy(0.01);
  StackRuntimeConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.item_size = 1.0;
  cfg.num_users = 1;
  cfg.cache_capacity = 8;
  // (item, is_prefetch, submit instant) of every retrieval.
  std::vector<std::tuple<ItemId, bool, double>> submitted;
  cfg.retrieval_observer = [&submitted, &sim](UserId, ItemId item,
                                              bool is_prefetch) {
    submitted.emplace_back(item, is_prefetch, sim.now());
  };
  StackRuntime runtime(sim, predictor, policy, std::move(cfg));
  runtime.begin_measurement();

  // Selection keeps the predictor's order, which is not the item order.
  sim.schedule_at(0.0, [&] {
    predictor.set({Candidate{11, 0.9}, Candidate{10, 0.8}});
    runtime.handle_request(0, 1);
  });
  sim.schedule_at(0.5, [&] {
    predictor.set({Candidate{13, 0.9}, Candidate{12, 0.8}});
    runtime.handle_request(0, 2);
    EXPECT_EQ(runtime.blocked_users(), 1u);
  });
  // Demand 1 has landed; demand 2 still holds the link.
  sim.schedule_at(1.75, [&] {
    EXPECT_EQ(submitted.size(), 2u);
    EXPECT_EQ(runtime.blocked_users(), 1u);
  });
  sim.run();

  const std::vector<std::tuple<ItemId, bool, double>> expected = {
      {1, false, 0.0},  {2, false, 0.5}, {11, true, 2.0},
      {10, true, 2.0},  {13, true, 2.0}, {12, true, 2.0}};
  EXPECT_EQ(submitted, expected);
  EXPECT_EQ(runtime.blocked_users(), 0u);
  const ProxySimResult r = runtime.finalize(runtime.snapshot_server(),
                                            "scripted");
  EXPECT_EQ(r.demand_jobs, 2u);
  EXPECT_EQ(r.prefetch_jobs, 4u);
  AuditReport report;
  runtime.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace specpf
