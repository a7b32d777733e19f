// Shard perf-trajectory recorder: measures the sharded runtime — multi-core
// scaling of an 8-shard fleet across worker-thread counts, and cross-shard
// traffic throughput — with the same plain chrono harness as perf_stack,
// and writes BENCH_shard.json alongside the engine/stack snapshots.
// (run_trace_replay is ShardedSim at S = 1, so there is no separate
// unsharded path to time against.)
//
// The binary also re-verifies the subsystem's determinism contract before
// writing anything: every thread count must produce bit-identical merged
// results.
//
// Note: thread scaling is hardware-bound — the speedup metric records
// whatever the host provides (hardware_concurrency is included in the
// output for context; on a 1-core container the sweep degenerates to ~1x).
//
// Usage: perf_shard [output.json]   (default: BENCH_shard.json)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

Trace make_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_users = 50000;
  cfg.num_requests = 200000;
  cfg.request_rate = 1000.0;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.seed = 5;
  return generate_synthetic_trace(cfg);
}

TraceReplayConfig stack_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 1200.0;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.max_prefetch_per_request = 4;
  cfg.seed = 5;
  return cfg;
}

PolicyFactory threshold_factory() {
  return [] {
    return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
  };
}

/// Best of two runs — replay configs are seconds-long, so the perf_stack
/// 0.5s-repeat harness would triple the wall time for no extra signal.
template <typename F>
double best_of_two(const F& body) {
  double best = 1e30;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    body();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt < best) best = dt;
  }
  return best;
}

bool results_equal(const ProxySimResult& a, const ProxySimResult& b) {
  return a.mean_access_time == b.mean_access_time &&
         a.hit_ratio == b.hit_ratio &&
         a.server_utilization == b.server_utilization &&
         a.requests == b.requests && a.demand_jobs == b.demand_jobs &&
         a.prefetch_jobs == b.prefetch_jobs &&
         a.inflight_hits == b.inflight_hits &&
         a.hprime_estimate == b.hprime_estimate;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_shard.json";
  std::vector<Metric> metrics;

  const Trace trace = make_trace();
  const TraceReplayConfig stack = stack_config();

  // Determinism + scaling: an 8-shard fleet across worker-thread counts.
  ShardedReplayConfig fleet;
  fleet.stack = stack;
  fleet.num_shards = 8;
  fleet.backbone_bandwidth = 10000.0;
  fleet.backbone_latency = 0.05;

  ShardedReplayResult reference;
  bool have_reference = false;
  double secs_1t = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    fleet.num_threads = threads;
    ShardedReplayResult last;
    const double secs = best_of_two(
        [&] { last = run_sharded_replay(trace, fleet, threshold_factory()); });
    if (!have_reference) {
      reference = last;
      have_reference = true;
      secs_1t = secs;
    } else if (!results_equal(last.merged, reference.merged) ||
               last.cross_shard_events != reference.cross_shard_events) {
      std::fprintf(stderr,
                   "8-shard run diverged at %zu worker threads\n", threads);
      return 1;
    }
    metrics.push_back(
        {"shard.replay.shard8_t" + std::to_string(threads) +
             "_requests_per_sec",
         static_cast<double>(last.merged.requests) / secs, "requests/s"});
    if (threads > 1) {
      metrics.push_back({"shard.replay.shard8_speedup_t" +
                             std::to_string(threads) + "_vs_t1",
                         secs_1t / secs, "x"});
    }
  }
  metrics.push_back({"shard.replay.shard8_epochs",
                     static_cast<double>(reference.epochs), "epochs"});
  metrics.push_back({"shard.replay.shard8_cross_shard_events",
                     static_cast<double>(reference.cross_shard_events),
                     "events"});
  metrics.push_back(
      {"shard.host_hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency()), "threads"});

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
    std::printf("  %-50s %14.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return 0;
}
