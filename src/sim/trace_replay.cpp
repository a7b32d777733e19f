#include "sim/trace_replay.hpp"

#include <algorithm>

#include "des/simulator.hpp"
#include "obs/divergence.hpp"
#include "sim/stack_runtime.hpp"
#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {

void TraceReplayConfig::validate() const {
  SPECPF_EXPECTS(bandwidth > 0.0);
  SPECPF_EXPECTS(item_size > 0.0);
  SPECPF_EXPECTS(cache_capacity >= 1);
  SPECPF_EXPECTS(max_prefetch_per_request >= 1);
  SPECPF_EXPECTS(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
  SPECPF_EXPECTS(governor.empty() || is_governor_name(governor));
  SPECPF_EXPECTS(stream_window >= 1);
  SPECPF_EXPECTS(!use_tree_inflight && !use_legacy_caches &&
                 !use_legacy_predictors);
  // The detector reads gauge streams; without a plane there is nothing to
  // watch, and aborting needs a verdict to abort on.
  SPECPF_EXPECTS(divergence == nullptr || telemetry != nullptr);
  SPECPF_EXPECTS(!abort_on_divergence || divergence != nullptr);
  // Replay has no generating graph for the oracle to read.
  SPECPF_EXPECTS(predictor_kind != PredictorKind::kOracle);
}

std::unique_ptr<PredictorPlane> make_replay_predictor(
    TraceReplayConfig::PredictorKind kind, std::size_t num_users,
    bool use_legacy) {
  SPECPF_EXPECTS(!use_legacy);
  SPECPF_EXPECTS(kind != PredictorKind::kOracle);
  PredictorPlaneConfig plane_config;
  plane_config.num_users = num_users;
  return make_predictor_plane(kind, plane_config);
}

ProxySimResult run_trace_replay(TraceSource& source,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy) {
  config.validate();

  // Pass 1 (metadata): record count, time span, and user densification
  // (first-appearance order — the runtime indexes users contiguously).
  // Sources are cheap to rewind, so two sequential scans beat holding the
  // trace in RAM.
  FlatHashMap<UserId> user_index;
  std::uint64_t record_count = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  source.reset();
  {
    TraceRecord r;
    double prev = 0.0;
    while (source.next(&r)) {
      SPECPF_EXPECTS(record_count == 0 || r.time >= prev);  // time-ordered
      prev = r.time;
      if (record_count == 0) first_time = r.time;
      last_time = r.time;
      bool inserted = false;
      UserId& dense = user_index.get_or_insert(r.user, &inserted);
      if (inserted) dense = static_cast<UserId>(user_index.size() - 1);
      ++record_count;
    }
  }
  SPECPF_EXPECTS(record_count > 0);

  auto predictor =
      make_replay_predictor(config.predictor_kind, user_index.size());

  StackRuntimeConfig runtime_config;
  runtime_config.bandwidth = config.bandwidth;
  runtime_config.item_size = config.item_size;
  runtime_config.num_users = user_index.size();
  runtime_config.cache_capacity = config.cache_capacity;
  runtime_config.cache_kind = config.cache_kind;
  runtime_config.estimator_model = config.estimator_model;
  runtime_config.max_prefetch_per_request = config.max_prefetch_per_request;
  runtime_config.seed = config.seed;
  // Matches Trace::mean_request_rate bit-for-bit on an ordered trace
  // (duration = last − first, rate 0 if degenerate).
  const double duration = record_count >= 2 ? last_time - first_time : 0.0;
  runtime_config.lambda_prior = std::max(
      1e-9, safe_div(static_cast<double>(record_count), duration, 0.0));
  runtime_config.enable_load_sensor = config.enable_load_sensor;
  runtime_config.sensor = config.sensor;
  runtime_config.telemetry = config.telemetry;
  std::unique_ptr<PrefetchGovernor> governor;
  if (!config.governor.empty()) {
    governor = make_governor_by_name(config.governor, config.governor_config);
    SPECPF_EXPECTS(governor != nullptr);
    runtime_config.governor = governor.get();
  }

  Simulator sim;
  StackRuntime runtime(sim, *predictor, policy, std::move(runtime_config));

  // Attach the divergence detector to the (now sealed) plane. Callers may
  // pre-configure thresholds and hand-pick signals; a bare detector gets
  // defaults and the standard gauge set.
  DivergenceDetector* detector = config.divergence;
  if (detector != nullptr) {
    if (!detector->configured()) detector->configure(DivergenceConfig{});
    if (detector->num_signals() == 0) detector->watch_plane(*config.telemetry);
  }

  // Shift the trace so the first request fires at t = 0.
  const double t0 = first_time;
  const std::size_t warmup_records = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(record_count));
  // Measurement must be live before the first request executes, and
  // windows below execute requests mid-pass — so unlike the historical
  // bulk path this cannot wait until after the scheduling loop.
  if (warmup_records == 0) runtime.begin_measurement();

  // Pass 2 (schedule): feed stream_window records, run the engine up to
  // the window's last arrival, repeat. Scheduling each batch before the
  // first pop of its window lands it in the engine's sorted O(1)-pop tier
  // rather than paying a heap sift per record, and occupancy stays at
  // ~window size instead of the whole trace. A whole-trace window (trace
  // shorter than stream_window) degenerates to the original bulk
  // schedule-everything-then-run replay, event for event.
  source.reset();
  bool aborted = false;
  {
    TraceRecord r;
    std::size_t index = 0;
    while (source.next(&r)) {
      const double when = r.time - t0;
      SPECPF_EXPECTS(when >= 0.0);
      if (index > 0 && index % config.stream_window == 0) {
        // run_until leaves sim.now() at `when`'s predecessor window edge;
        // arrivals are non-decreasing, so scheduling stays legal.
        sim.run_until(when);
        // Window boundaries are the detector's evaluation instants: the
        // engine has just caught up to real arrivals, so the gauge streams
        // are current. Pure observation unless abort is armed.
        if (detector != nullptr &&
            detector->evaluate() == StabilityVerdict::kDivergent &&
            config.abort_on_divergence) {
          aborted = true;
          break;
        }
      }
      if (warmup_records > 0 && index == warmup_records) {
        sim.schedule_at(when, [&runtime] { runtime.begin_measurement(); });
      }
      const UserId user = *user_index.find(r.user);
      sim.schedule_at(when, [&runtime, user, item = r.item] {
        runtime.handle_request(user, item);
      });
      ++index;
    }
  }

  ServerStats horizon_stats;
  if (aborted) {
    // The verdict latched mid-trace: stop feeding records and snapshot the
    // server at the abort instant instead of simulating the exploding
    // queue out to the horizon. Already-scheduled work still drains below
    // so the result's completion metrics are well-formed for the prefix.
    horizon_stats = runtime.snapshot_server();
  } else {
    const double end_time = last_time - t0;
    sim.schedule_at(end_time,
                    [&] { horizon_stats = runtime.snapshot_server(); });
  }

  sim.run();  // replay the tail window and drain
  if (detector != nullptr) detector->evaluate();  // final post-drain verdict
  return runtime.finalize(horizon_stats, policy.name());
}

ProxySimResult run_trace_replay(const Trace& trace,
                                const TraceReplayConfig& config,
                                PrefetchPolicy& policy) {
  SPECPF_EXPECTS(!trace.empty());
  SPECPF_EXPECTS(trace.is_time_ordered());
  TraceVectorSource source(trace);
  return run_trace_replay(source, config, policy);
}

}  // namespace specpf
