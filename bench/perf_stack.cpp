// Stack perf-trajectory recorder: isolates the request data plane — the
// in-flight transfer map, the predictor planes, and the full proxy/replay
// stacks — with a plain chrono harness (no google-benchmark dependency) and
// writes BENCH_stack.json alongside BENCH_engine.json, so the perf history
// covers the stack and not just the engine.
//
// Usage: perf_stack [output.json]   (default output: BENCH_stack.json)
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "policy/policies.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/proxy_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` repeatedly until ~0.5s elapses; returns best seconds/call.
double best_time(const std::function<void()>& body) {
  double best = 1e30;
  double total = 0.0;
  int calls = 0;
  while (total < 0.5 || calls < 3) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt < best) best = dt;
    total += dt;
    ++calls;
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Mirrors StackRuntime::Inflight: a tag plus a usually-empty waiter list.
struct InflightPayload {
  bool is_prefetch = false;
  std::vector<double> waiter_times;
};

/// The in-flight access pattern of the stack, replayed against the flat
/// map: submit (insert), a few lookups while the transfer is live,
/// completion (erase), over a rolling live set — the shape handle_request
/// produces.
constexpr std::size_t kChurnOps = 400000;
constexpr std::size_t kChurnLive = 4096;

std::uint64_t churn(FlatHashMap<InflightPayload>& map) {
  Rng rng(42);
  std::vector<std::uint64_t> live(kChurnLive, 0);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    const std::uint64_t user = rng.next_u64() % 64;
    const std::uint64_t item = rng.next_u64() % 100000;
    const std::uint64_t key = (user << 32) | item;
    const std::size_t slot = i % kChurnLive;
    if (live[slot] != 0) {
      checksum += map.erase(live[slot]) ? 1 : 0;
    }
    map[key].is_prefetch = (i & 1) != 0;
    live[slot] = key;
    for (int probe = 0; probe < 3; ++probe) {
      const std::uint64_t probe_key = live[rng.next_u64() % kChurnLive];
      if (probe_key != 0 && map.find(probe_key) != nullptr) ++checksum;
    }
  }
  return checksum;
}

double bench_churn_flat(std::uint64_t* checksum) {
  return best_time([&] {
    FlatHashMap<InflightPayload> map;
    *checksum = churn(map);
  });
}

/// Interleaved per-user session walks, so each user's sequence is a real
/// first-order chain (what the predictors' tables see in the stack).
constexpr std::size_t kPredictorUsers = 256;

std::vector<std::pair<UserId, std::uint64_t>> make_predictor_stream(
    const SessionGraph& graph, std::size_t events) {
  std::vector<std::pair<UserId, std::uint64_t>> stream;
  stream.reserve(events);
  Rng rng(9);
  std::vector<std::uint64_t> page(kPredictorUsers);
  for (std::size_t u = 0; u < kPredictorUsers; ++u) {
    page[u] = graph.sample_entry(rng);
  }
  for (std::size_t i = 0; i < events; ++i) {
    const std::size_t u = rng.next_u64() % kPredictorUsers;
    stream.emplace_back(static_cast<UserId>(u), page[u]);
    if (!graph.sample_next(page[u], rng, &page[u])) {
      page[u] = graph.sample_entry(rng);
    }
  }
  return stream;
}

std::unique_ptr<PredictorPlane> make_bench_plane(PredictorKind kind,
                                                 const SessionGraph& graph) {
  PredictorPlaneConfig config;
  config.num_users = kPredictorUsers;
  config.graph = &graph;
  return make_predictor_plane(kind, config);
}

/// Observe-throughput phase: table construction from a cold start, no
/// prediction — isolates intern/counter-bump cost.
double bench_predictor_observe(
    PredictorKind kind, const SessionGraph& graph,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream) {
  return best_time([&] {
    auto predictor = make_bench_plane(kind, graph);
    for (const auto& [user, item] : stream) predictor->observe(user, item);
  });
}

/// Predict-throughput phase: tables pre-built outside the timer, one
/// predict_into(8) per event into a reused scratch buffer — isolates
/// ranking/top-k cost.
double bench_predictor_predict(
    PredictorKind kind, const SessionGraph& graph,
    const std::vector<std::pair<UserId, std::uint64_t>>& stream) {
  auto predictor = make_bench_plane(kind, graph);
  for (const auto& [user, item] : stream) predictor->observe(user, item);
  std::vector<core::Candidate> scratch;
  return best_time([&] {
    std::size_t sink = 0;
    for (const auto& [user, item] : stream) {
      predictor->predict_into(user, 8, scratch);
      sink += scratch.size();
    }
    if (sink == 0) std::fprintf(stderr, "predictor produced nothing\n");
  });
}

double bench_proxy_sim(std::uint64_t* requests_out) {
  ProxySimConfig config;
  config.num_users = 8;
  config.duration = 300.0;
  config.warmup = 30.0;
  config.seed = 11;
  config.predictor_kind = ProxySimConfig::PredictorKind::kMarkov;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto result = run_proxy_sim(config, policy);
    requests = result.requests;
  });
  *requests_out = requests;
  return secs;
}

double bench_trace_replay(std::uint64_t* requests_out) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 50000;
  trace_cfg.num_requests = 200000;
  trace_cfg.request_rate = 1000.0;
  trace_cfg.graph.num_pages = 400;
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.seed = 5;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = 1200.0;
  replay_cfg.cache_capacity = 8;
  replay_cfg.max_prefetch_per_request = 4;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto result = run_trace_replay(trace, replay_cfg, policy);
    requests = result.requests;
  });
  *requests_out = requests;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_stack.json";
  if (argc > 2 || path[0] == '-') {
    std::fprintf(stderr, "usage: perf_stack [output.json]\n");
    return 2;
  }
  std::vector<Metric> metrics;

  std::uint64_t churn_checksum = 0;
  const double churn_secs = bench_churn_flat(&churn_checksum);
  if (churn_checksum == 0) std::fprintf(stderr, "inflight churn found nothing\n");
  metrics.push_back({"stack.inflight_churn.flat_ops_per_sec",
                     static_cast<double>(kChurnOps) / churn_secs, "ops/s"});

  // Predictor planes: all five kinds, observe and predict phases timed
  // separately over one shared session-structured stream.
  const std::size_t kPredictorEvents = 200000;
  SessionGraphConfig pred_gcfg;
  pred_gcfg.num_pages = 400;
  pred_gcfg.out_degree = 3;
  const SessionGraph pred_graph(pred_gcfg, 7);
  const auto pred_stream = make_predictor_stream(pred_graph, kPredictorEvents);
  const double pred_events = static_cast<double>(kPredictorEvents);
  for (int k = 0; k < kNumPredictorKinds; ++k) {
    const auto kind = static_cast<PredictorKind>(k);
    const std::string name = predictor_kind_name(kind);
    const double observe_secs =
        bench_predictor_observe(kind, pred_graph, pred_stream);
    const double predict_secs =
        bench_predictor_predict(kind, pred_graph, pred_stream);
    metrics.push_back({"stack.predictor." + name + ".observe_plane_events_per_sec",
                       pred_events / observe_secs, "events/s"});
    metrics.push_back({"stack.predictor." + name + ".predict_plane_events_per_sec",
                       pred_events / predict_secs, "events/s"});
  }

  std::uint64_t proxy_requests = 0;
  const double proxy_secs = bench_proxy_sim(&proxy_requests);
  metrics.push_back({"stack.proxy_sim.flat_requests_per_sec",
                     static_cast<double>(proxy_requests) / proxy_secs,
                     "requests/s"});

  std::uint64_t replay_requests = 0;
  const double replay_secs = bench_trace_replay(&replay_requests);
  metrics.push_back({"stack.trace_replay.flat_requests_per_sec",
                     static_cast<double>(replay_requests) / replay_secs,
                     "requests/s"});

  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                 metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str(), i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
  for (const auto& m : metrics) {
    std::printf("  %-45s %14.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return 0;
}
