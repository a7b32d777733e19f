// The traced run: one replay of a workload with the probes installed,
// reporting where its wall-clock went layer by layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace specpf::bench {

struct TracedRun {
  double wall_s = 0.0;
  /// Σ of every layer's time; trace.closure = covered_s / wall_s.
  double covered_s = 0.0;
  std::uint64_t digest = 0;
  /// Per-layer metrics this run measured, by their BENCHMARK.json names.
  std::vector<std::pair<std::string, double>> metrics;
  /// Link submission instants (unsharded only), for the isolated PS replay.
  std::vector<double> submissions;
};

/// Unsharded: the benchmark's own copy of run_trace_replay's two passes
/// (metadata scan, stream_window batches, warmup event, horizon snapshot,
/// detector evaluations at window boundaries) over a StackRuntime built
/// from make_replay_predictor with the decorators installed, stepping the
/// engine event by event. Its result must be bit-identical to the library
/// path's, which the caller checks through `digest`.
TracedRun traced_replay(const Workload& w, Inputs& in);

/// ShardedSim is sealed: only the source and per-shard policies are
/// decorated, and the constructor / run() split frames the rest.
TracedRun traced_sharded(const Workload& w, Inputs& in);

}  // namespace specpf::bench
