// Stack perf-trajectory recorder: isolates the request data plane — the
// in-flight transfer map and the predictor planes — with the plain chrono
// harness (bench/harness.hpp) and writes BENCH_stack.json alongside
// BENCH_engine.json. The full replay stack is timed by bench/e2e.
//
// Usage: perf_stack [output.json]   (default output: BENCH_stack.json)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "predict/predictor_plane.hpp"
#include "util/flat_hash.hpp"
#include "util/rng.hpp"
#include "workload/session_graph.hpp"

namespace {

using namespace specpf;

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

}  // namespace

int main(int argc, char** argv) {
  const char* path =
      bench::output_path(argc, argv, "perf_stack", "BENCH_stack.json");
  std::vector<bench::Metric> metrics;

  std::uint64_t churn_checksum = 0;
  const bench::Timing churn_t = bench::time_call([&] {
    FlatHashMap<InflightPayload> map;
    churn_checksum = churn(map);
  });
  if (churn_checksum == 0) std::fprintf(stderr, "inflight churn found nothing\n");
  metrics.push_back(bench::rate("stack.inflight_churn.flat_ops_per_sec",
                                static_cast<double>(kChurnOps), churn_t,
                                "ops/s"));

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
    const std::string name =
        std::string("stack.predictor.") + predictor_kind_name(kind);
    // Observe phase: table construction from a cold start, no prediction —
    // isolates intern/counter-bump cost.
    const bench::Timing observe_t = bench::time_call([&] {
      auto predictor = make_bench_plane(kind, pred_graph);
      for (const auto& [user, item] : pred_stream) {
        predictor->observe(user, item);
      }
    });
    // Predict phase: tables pre-built outside the timer, one
    // predict_into(8) per event into a reused scratch buffer — isolates
    // ranking/top-k cost.
    auto predictor = make_bench_plane(kind, pred_graph);
    for (const auto& [user, item] : pred_stream) predictor->observe(user, item);
    std::vector<core::Candidate> scratch;
    std::size_t candidates = 0;
    const bench::Timing predict_t = bench::time_call([&] {
      for (const auto& [user, item] : pred_stream) {
        predictor->predict_into(user, 8, scratch);
        candidates += scratch.size();
      }
      bench::sink(candidates);
    });
    if (candidates == 0) std::fprintf(stderr, "predictor produced nothing\n");
    metrics.push_back(bench::rate(name + ".observe_plane_events_per_sec",
                                  pred_events, observe_t, "events/s"));
    metrics.push_back(bench::rate(name + ".predict_plane_events_per_sec",
                                  pred_events, predict_t, "events/s"));
  }

  return bench::write_snapshot(path, metrics) ? 0 : 1;
}
