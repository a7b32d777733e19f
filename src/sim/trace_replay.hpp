// Trace-driven replay: runs the full prefetching stack (per-user tagged
// caches, predictor, policy, shared PS server) against a *recorded* request
// trace instead of a generative workload.
//
// Replay gives paired comparisons — every policy sees byte-identical
// request sequences — and lets users evaluate the threshold rule on their
// own logs (Trace::load_csv_file). Timing semantics are open-loop: requests
// fire at their recorded instants regardless of fetch completions, matching
// the paper's fixed-λ assumption.
//
// There is one driver: run_trace_replay is ShardedSim
// (shard/sharded_sim.hpp) at S = 1, whose shard borrows the caller's
// policy, and run_proxy_sim is the same call over a session source.
// TraceReplayConfig is also the per-shard stack configuration every
// sharded run carries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "control/governor.hpp"
#include "policy/policy.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/proxy_sim.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace specpf {

struct TraceReplayConfig : StackConfig {
  /// Access model (the fleet-wide enum from predict/factory.hpp). kOracle
  /// reads the source's generating graph; the driver rejects it over a
  /// source without one (any recorded trace).
  using PredictorKind = specpf::PredictorKind;
  PredictorKind predictor_kind = PredictorKind::kMarkov;

  /// Fraction of the trace treated as warmup (metrics reset after it).
  double warmup_fraction = 0.1;

  // Retired backend selectors: check() rejects true, nothing reads them.
  bool use_tree_inflight = false;      // exists only because bench/e2e names it
  bool use_legacy_caches = false;      // exists only because bench/e2e names it
  bool use_legacy_predictors = false;  // exists only because bench/e2e names it

  /// Prefetch governor by name (control/governor.hpp): noop, token-<rate>,
  /// aimd-<setpoint>, conf-<precision>. Empty = ungoverned (today's
  /// open-loop behaviour). The sharded driver builds one instance per
  /// shard from the same name.
  std::string governor;
  /// Tuning knobs behind the name's primary parameter.
  GovernorConfig governor_config;
  /// Run the proxy-link load sensor even when ungoverned, so baselines
  /// report the same peak-load metrics governed runs do (pure
  /// observation: results stay bit-identical to a sensor-less run apart
  /// from the peak_* fields themselves).
  bool enable_load_sensor = false;
  LoadSensorConfig sensor;

  /// Online divergence detector (obs/divergence.hpp; borrowed, must
  /// outlive the run). Requires a plane (`telemetry` or the sharded run's
  /// fleet): the driver attaches it to the sealed plane(s), configuring it
  /// with defaults and watching the standard gauge set if the caller did
  /// neither, and evaluates it on the driver thread at every epoch barrier
  /// (every stream-window boundary at S = 1) plus once after the drain.
  /// Pure observation — results are bit-identical with this null or
  /// installed — unless `abort_on_divergence` is also set.
  class DivergenceDetector* divergence = nullptr;
  /// Stop feeding records as soon as the detector's verdict turns
  /// divergent at a barrier while records remain: server stats are
  /// snapshotted at that barrier instead of simulating an exploding queue
  /// to the horizon, and the work already scheduled drains. The result
  /// then covers only the simulated prefix; callers read the detector for
  /// the verdict and onset.
  bool abort_on_divergence = false;

  /// Streaming granularity: no epoch feeds more than this many trace
  /// records into the engines before running them forward. Bounds engine
  /// occupancy at ~stream_window events (plus in-flight fetches)
  /// regardless of trace length — the knob that keeps billion-request
  /// replays at bounded RSS. Traces shorter than one window replay exactly
  /// like the bulk schedule-everything path.
  std::size_t stream_window = 65536;

  /// StackConfig::check(), then the replay's own fields.
  std::string check() const;
  /// Throws ContractViolation carrying check()'s message.
  void validate() const;
};

/// Replays `trace` (must be time-ordered) under `policy`.
ProxySimResult run_trace_replay(const Trace& trace,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy);

/// Streaming form: pulls requests from `source` (time-ordered) in
/// stream_window batches instead of materializing a Trace. Two sequential
/// passes over the source (metadata, then schedule); results are
/// bit-identical to the in-RAM overload fed the same record sequence.
/// Both overloads are ShardedSim at S = 1 returning the merged result.
ProxySimResult run_trace_replay(TraceSource& source,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy);

/// Fresh predictor plane for a graph-less kind (`num_users` sizes the
/// plane's user-indexed history slab); kOracle is refused. Kept for
/// bench/e2e's traced driver copy. `use_legacy` must be false; it exists
/// only because bench/e2e passes a literal `false`.
std::unique_ptr<PredictorPlane> make_replay_predictor(
    TraceReplayConfig::PredictorKind kind, std::size_t num_users,
    bool use_legacy = false);

}  // namespace specpf
