// Trace-driven replay: runs the full prefetching stack (per-user tagged
// caches, predictor, policy, shared PS server) against a *recorded* request
// trace instead of a generative workload.
//
// Replay gives paired comparisons — every policy sees byte-identical
// request sequences — and lets users evaluate the threshold rule on their
// own logs (Trace::load_csv_file). Timing semantics are open-loop: requests
// fire at their recorded instants regardless of fetch completions, matching
// the paper's fixed-λ assumption.
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

struct TraceReplayConfig {
  double bandwidth = 50.0;
  double item_size = 1.0;
  std::size_t cache_capacity = 64;
  ProxySimConfig::CacheKind cache_kind = ProxySimConfig::CacheKind::kLru;

  /// Access model (the fleet-wide enum from predict/factory.hpp). Replay
  /// has no generating graph, so kOracle is rejected by validate().
  using PredictorKind = specpf::PredictorKind;
  PredictorKind predictor_kind = PredictorKind::kMarkov;

  core::InteractionModel estimator_model = core::InteractionModel::kModelA;
  std::size_t max_prefetch_per_request = 8;

  /// Fraction of the trace treated as warmup (metrics reset after it).
  double warmup_fraction = 0.1;
  std::uint64_t seed = 1;  ///< only used by the random cache kind

  // Retired backend selectors: validate() rejects true, nothing reads them.
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

  /// Telemetry plane to record into (borrowed; must outlive the run).
  /// Pure observation: results are bit-identical with this null or
  /// installed. The *sharded* driver takes a TelemetryFleet through its
  /// own config instead and requires this to stay null (one plane cannot
  /// serve S independent engines).
  class TelemetryPlane* telemetry = nullptr;

  /// Online divergence detector (obs/divergence.hpp; borrowed, must
  /// outlive the run). Requires `telemetry`: the replay attaches it to the
  /// sealed plane (configuring it with defaults and watching the standard
  /// gauge set if the caller did neither) and evaluates it on the driver
  /// thread at every stream-window boundary plus once after the drain.
  /// Pure observation — results are bit-identical with this null or
  /// installed — unless `abort_on_divergence` is also set. The sharded
  /// driver takes its detector through its own config and requires this to
  /// stay null.
  class DivergenceDetector* divergence = nullptr;
  /// Terminate the replay as soon as the detector's verdict turns
  /// divergent: stop scheduling records and snapshot server stats at the
  /// abort instant instead of simulating an exploding queue to the
  /// horizon. The result then covers only the simulated prefix; callers
  /// read the detector for the verdict and onset.
  bool abort_on_divergence = false;

  /// Streaming granularity: how many trace records to schedule into the
  /// engine before running it forward. Bounds engine occupancy at
  /// ~stream_window events (plus in-flight fetches) regardless of trace
  /// length — the knob that keeps billion-request replays at bounded RSS.
  /// Traces shorter than one window replay exactly like the old
  /// bulk-schedule-everything path.
  std::size_t stream_window = 65536;

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
ProxySimResult run_trace_replay(TraceSource& source,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy);

/// Fresh predictor plane for a replay kind — shared with the sharded
/// driver, which needs one independent plane per shard (`num_users` sizes
/// the plane's user-indexed history slab). kOracle is not replayable.
/// `use_legacy` must be false; it exists only because bench/e2e passes a
/// literal `false`.
std::unique_ptr<PredictorPlane> make_replay_predictor(
    TraceReplayConfig::PredictorKind kind, std::size_t num_users,
    bool use_legacy = false);

}  // namespace specpf
