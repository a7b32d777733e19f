// Trace-driven replay: determinism, paired policy comparisons, and
// equivalence sanity against the generative proxy sim.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cache/cache_plane.hpp"
#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace specpf {
namespace {

Trace make_session_trace(std::size_t sessions, std::uint64_t seed) {
  SessionGraphConfig gcfg;
  gcfg.num_pages = 80;
  gcfg.out_degree = 3;
  gcfg.exit_probability = 0.2;
  gcfg.link_skew = 1.5;
  SessionGraph graph(gcfg, seed);
  Rng rng(seed ^ 0xABCD);
  Trace trace;
  double t = 0.0;
  for (std::size_t s = 0; s < sessions; ++s) {
    t += 0.8;
    for (std::uint64_t page : graph.sample_session(rng)) {
      trace.append({t, static_cast<std::uint32_t>(s % 5), page});
      t += 0.3;
    }
  }
  return trace;
}

TEST(TraceReplay, SmokeAndConservation) {
  const Trace trace = make_session_trace(400, 11);
  TraceReplayConfig cfg;
  cfg.bandwidth = 30.0;
  cfg.cache_capacity = 32;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  // Every post-warmup request is recorded exactly once.
  const auto warmup = static_cast<std::uint64_t>(0.1 * trace.size());
  EXPECT_EQ(r.requests, trace.size() - warmup);
  EXPECT_EQ(r.prefetch_jobs, 0u);
  EXPECT_GT(r.hit_ratio, 0.0);
  EXPECT_LT(r.hit_ratio, 1.0);
}

TEST(TraceReplay, DeterministicAcrossRuns) {
  const Trace trace = make_session_trace(200, 13);
  TraceReplayConfig cfg;
  ThresholdPolicy p1(core::InteractionModel::kModelA);
  ThresholdPolicy p2(core::InteractionModel::kModelA);
  const auto a = run_trace_replay(trace, cfg, p1);
  const auto b = run_trace_replay(trace, cfg, p2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_access_time, b.mean_access_time);
  EXPECT_EQ(a.prefetch_jobs, b.prefetch_jobs);
}

TEST(TraceReplay, PairedPoliciesSeeIdenticalRequests) {
  const Trace trace = make_session_trace(300, 17);
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  FixedThresholdPolicy spray(0.05);
  const auto a = run_trace_replay(trace, cfg, none);
  const auto b = run_trace_replay(trace, cfg, spray);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_GT(b.prefetch_jobs, 0u);
  EXPECT_GT(b.hit_ratio, a.hit_ratio);  // prefetching converts misses
}

TEST(TraceReplay, PrefetchingImprovesAccessTimeOnPredictableTrace) {
  const Trace trace = make_session_trace(600, 19);
  TraceReplayConfig cfg;
  cfg.bandwidth = 40.0;
  cfg.cache_capacity = 24;
  NoPrefetchPolicy none;
  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto base = run_trace_replay(trace, cfg, none);
  const auto pref = run_trace_replay(trace, cfg, threshold);
  EXPECT_LT(pref.mean_access_time, base.mean_access_time);
}

TEST(TraceReplay, AllPredictorsRun) {
  const Trace trace = make_session_trace(150, 23);
  for (auto kind : {TraceReplayConfig::PredictorKind::kMarkov,
                    TraceReplayConfig::PredictorKind::kPpm,
                    TraceReplayConfig::PredictorKind::kDependencyGraph,
                    TraceReplayConfig::PredictorKind::kFrequency}) {
    TraceReplayConfig cfg;
    cfg.predictor_kind = kind;
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto r = run_trace_replay(trace, cfg, policy);
    EXPECT_GT(r.requests, 0u);
  }
}

TEST(TraceReplay, RejectsEmptyAndUnsortedTraces) {
  TraceReplayConfig cfg;
  NoPrefetchPolicy none;
  EXPECT_THROW(run_trace_replay(Trace{}, cfg, none), ContractViolation);
  Trace unsorted;
  unsorted.append({5.0, 0, 1});
  unsorted.append({1.0, 0, 2});
  EXPECT_THROW(run_trace_replay(unsorted, cfg, none), ContractViolation);
}

TEST(TraceReplay, RejectsRetiredBackendSelectors) {
  // The legacy backends are gone; the flags and factory parameters that
  // named them survive only for source compatibility and refuse `true`.
  for (int flag = 0; flag < 3; ++flag) {
    TraceReplayConfig cfg;
    cfg.use_tree_inflight = flag == 0;
    cfg.use_legacy_caches = flag == 1;
    cfg.use_legacy_predictors = flag == 2;
    EXPECT_THROW(cfg.validate(), ContractViolation) << "flag " << flag;
  }
  EXPECT_THROW(make_replay_predictor(PredictorKind::kMarkov, 4, true),
               ContractViolation);
  CachePlaneConfig plane_cfg;
  EXPECT_THROW(make_cache_plane(CacheKind::kLru, plane_cfg, true),
               ContractViolation);
}

TEST(TraceReplay, SparseUserIdsAreDensified) {
  Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.append({static_cast<double>(i), 1000000u + (i % 3) * 7919u,
                  static_cast<std::uint64_t>(i % 10)});
  }
  TraceReplayConfig cfg;
  cfg.warmup_fraction = 0.0;
  NoPrefetchPolicy none;
  const auto r = run_trace_replay(trace, cfg, none);
  EXPECT_EQ(r.requests, 50u);
}

TEST(TraceReplay, OracleWithoutAGraphNamesPredictorKind) {
  // A recorded trace carries no generating graph; the driver refuses the
  // oracle with a message naming the config field.
  const Trace trace = make_session_trace(20, 29);
  TraceReplayConfig cfg;
  cfg.predictor_kind = PredictorKind::kOracle;
  EXPECT_EQ(cfg.check(), "");
  NoPrefetchPolicy none;
  try {
    run_trace_replay(trace, cfg, none);
    ADD_FAILURE() << "oracle over a plain trace did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(std::string(e.what()).rfind("precondition failed: predictor_kind: ",
                                          0),
              0u)
        << e.what();
  }
}

/// One broken rule: the field check() must name and how to break it.
template <typename Config>
struct BadField {
  const char* field;
  std::function<void(Config&)> apply;
};

/// Each case breaks one rule of an otherwise default config: check() must
/// return "<field>: ..." and validate() must throw a ContractViolation
/// carrying that same text.
template <typename Config>
void expect_each_rejected(const std::vector<BadField<Config>>& cases) {
  for (const BadField<Config>& bad : cases) {
    Config cfg;
    bad.apply(cfg);
    const std::string message = cfg.check();
    EXPECT_EQ(message.rfind(std::string(bad.field) + ": ", 0), 0u)
        << "field " << bad.field << ", message '" << message << "'";
    try {
      cfg.validate();
      ADD_FAILURE() << bad.field << ": validate() did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigCheck, EachRuleNamesItsField) {
  EXPECT_EQ(StackConfig{}.check(), "");
  EXPECT_EQ(ProxySimConfig{}.check(), "");
  EXPECT_EQ(TraceReplayConfig{}.check(), "");
  EXPECT_EQ(ShardedReplayConfig{}.check(), "");

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> not_positive_finite = {0.0, -1.0, nan, inf};

  // The shared StackConfig rules hold in every driver config.
  std::vector<BadField<StackConfig>> shared = {
      {"cache_capacity", [](StackConfig& c) { c.cache_capacity = 0; }},
      {"max_prefetch_per_request",
       [](StackConfig& c) { c.max_prefetch_per_request = 0; }},
  };
  for (double v : not_positive_finite) {
    shared.push_back({"bandwidth", [v](StackConfig& c) { c.bandwidth = v; }});
    shared.push_back({"item_size", [v](StackConfig& c) { c.item_size = v; }});
  }
  std::vector<BadField<ProxySimConfig>> proxy;
  std::vector<BadField<TraceReplayConfig>> replay;
  std::vector<BadField<ShardedReplayConfig>> sharded;
  for (const auto& bad : shared) {
    proxy.push_back({bad.field, bad.apply});
    replay.push_back({bad.field, bad.apply});
    sharded.push_back(
        {bad.field, [f = bad.apply](ShardedReplayConfig& c) { f(c.stack); }});
  }

  using P = ProxySimConfig;
  proxy.push_back({"num_users", [](P& c) { c.num_users = 0; }});
  proxy.push_back({"graph.num_pages", [](P& c) { c.graph.num_pages = 0; }});
  proxy.push_back({"graph.num_pages", [](P& c) { c.graph.num_pages = 1; }});
  proxy.push_back({"graph.out_degree", [](P& c) { c.graph.out_degree = 0; }});
  for (double v : {0.0, -0.5, 1.5, nan}) {
    proxy.push_back({"graph.exit_probability",
                     [v](P& c) { c.graph.exit_probability = v; }});
  }
  for (double v : {nan, inf}) {
    proxy.push_back({"graph.link_skew", [v](P& c) { c.graph.link_skew = v; }});
  }
  for (double v : not_positive_finite) {
    proxy.push_back(
        {"graph.entry_skew", [v](P& c) { c.graph.entry_skew = v; }});
    proxy.push_back({"session_rate_per_user",
                     [v](P& c) { c.session_rate_per_user = v; }});
    proxy.push_back(
        {"think_time_mean", [v](P& c) { c.think_time_mean = v; }});
    proxy.push_back({"duration", [v](P& c) { c.duration = v; }});
  }
  for (double v : {-1.0, nan, inf}) {
    proxy.push_back({"warmup", [v](P& c) { c.warmup = v; }});
  }
  // A warmup share that rounds to the whole run leaves nothing to measure.
  proxy.push_back({"warmup", [](P& c) {
                     c.warmup = 1e17;
                     c.duration = 1.0;
                   }});

  using R = TraceReplayConfig;
  for (double v : {-0.1, 1.0, nan}) {
    replay.push_back({"warmup_fraction", [v](R& c) { c.warmup_fraction = v; }});
  }
  replay.push_back({"governor", [](R& c) { c.governor = "bogus"; }});
  replay.push_back({"stream_window", [](R& c) { c.stream_window = 0; }});
  replay.push_back(
      {"use_tree_inflight", [](R& c) { c.use_tree_inflight = true; }});
  replay.push_back(
      {"use_legacy_caches", [](R& c) { c.use_legacy_caches = true; }});
  replay.push_back(
      {"use_legacy_predictors", [](R& c) { c.use_legacy_predictors = true; }});
  replay.push_back(
      {"abort_on_divergence", [](R& c) { c.abort_on_divergence = true; }});

  TelemetryPlane plane;
  TelemetryFleet fleet(TelemetryConfig{}, 2);
  DivergenceDetector detector;
  using S = ShardedReplayConfig;
  sharded.push_back({"num_shards", [](S& c) { c.num_shards = 0; }});
  for (double v : not_positive_finite) {
    sharded.push_back(
        {"backbone_latency", [v](S& c) { c.backbone_latency = v; }});
    sharded.push_back(
        {"backbone_bandwidth", [v](S& c) { c.backbone_bandwidth = v; }});
  }
  sharded.push_back({"num_shards", [&plane](S& c) {
                       c.num_shards = 2;
                       c.stack.telemetry = &plane;
                     }});
  sharded.push_back({"telemetry", [&plane, &fleet](S& c) {
                       c.stack.telemetry = &plane;
                       c.telemetry = &fleet;
                     }});
  sharded.push_back({"telemetry", [&fleet](S& c) { c.telemetry = &fleet; }});
  sharded.push_back({"stack.divergence",
                     [&detector](S& c) { c.stack.divergence = &detector; }});
  // A replay rule reached through the sharded config's stack.
  sharded.push_back({"stream_window", [](S& c) { c.stack.stream_window = 0; }});

  expect_each_rejected(proxy);
  expect_each_rejected(replay);
  expect_each_rejected(sharded);
}

}  // namespace
}  // namespace specpf
