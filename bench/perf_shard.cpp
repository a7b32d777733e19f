// Shard perf-trajectory recorder: measures the sharded runtime — multi-core
// scaling of an 8-shard fleet across worker-thread counts, and the epoch and
// cross-shard traffic volume behind it — with the plain chrono harness
// (bench/harness.hpp), and writes BENCH_shard.json alongside the
// engine/stack snapshots. Replay throughput itself is bench/e2e's
// fleet-shard8; this binary reports only the speedup ratios.
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
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;

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

}  // namespace

int main(int argc, char** argv) {
  const char* path =
      bench::output_path(argc, argv, "perf_shard", "BENCH_shard.json");
  std::vector<bench::Metric> metrics;

  const Trace trace = make_trace();

  // Determinism + scaling: an 8-shard fleet across worker-thread counts,
  // timed interleaved.
  ShardedReplayConfig fleet;
  fleet.stack = stack_config();
  fleet.num_shards = 8;
  fleet.backbone_bandwidth = 10000.0;
  fleet.backbone_latency = 0.05;

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<ShardedReplayResult> results(std::size(thread_counts));
  std::vector<std::function<void()>> legs;
  for (std::size_t i = 0; i < std::size(thread_counts); ++i) {
    legs.push_back([&, i] {
      fleet.num_threads = thread_counts[i];
      results[i] = run_sharded_replay(trace, fleet, threshold_factory());
    });
  }
  const std::vector<bench::Timing> timings = bench::time_legs(legs);
  const ShardedReplayResult& reference = results[0];
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (!bench::same_result(results[i].merged, reference.merged) ||
        results[i].cross_shard_events != reference.cross_shard_events) {
      std::fprintf(stderr, "8-shard run diverged at %zu worker threads\n",
                   thread_counts[i]);
      return 1;
    }
    metrics.push_back(bench::ratio("shard.replay.shard8_speedup_t" +
                                       std::to_string(thread_counts[i]) +
                                       "_vs_t1",
                                   timings[0], timings[i]));
  }
  metrics.push_back({"shard.replay.shard8_epochs",
                     static_cast<double>(reference.epochs), "epochs"});
  metrics.push_back({"shard.replay.shard8_cross_shard_events",
                     static_cast<double>(reference.cross_shard_events),
                     "events"});
  metrics.push_back(
      {"shard.host_hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency()), "threads"});

  return bench::write_snapshot(path, metrics) ? 0 : 1;
}
