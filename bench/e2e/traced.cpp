#include "traced.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "des/simulator.hpp"
#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "probes.hpp"
#include "sim/stack_runtime.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"
#include "util/math.hpp"

namespace specpf::bench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// What the engine-stepping loop measures. Every event's step() span is
/// chained to the previous one's end, so the loop's wall-clock is covered
/// without gaps; request events additionally time handle_request inside.
struct EngineTimes {
  std::int64_t handler_ns = 0;       ///< Σ handle_request spans
  std::int64_t request_step_ns = 0;  ///< Σ step() spans of request events
  std::int64_t other_step_ns = 0;    ///< Σ step() spans of other events
  std::int64_t other_inner_ns = 0;   ///< decorator time inside other events
  std::int64_t peek_ns = 0;          ///< window-closing peek + run_until
  std::int64_t schedule_ns = 0;      ///< feed loop minus record decode
  std::uint64_t request_events = 0;
  std::uint64_t other_events = 0;
  std::size_t max_pending = 0;
  bool in_request = false;
};

/// Retrieval-observer state: every link submission instant, and the
/// deepest the link was when one arrived.
struct LinkProbe {
  const Simulator* sim = nullptr;
  StackRuntime* runtime = nullptr;
  std::vector<double> submissions;
  std::size_t max_active = 0;
};

}  // namespace

TracedRun traced_replay(const Workload& w, Inputs& in) {
  const TraceReplayConfig& config = w.replay;
  config.validate();
  SPECPF_EXPECTS(!config.abort_on_divergence);
  SPECPF_EXPECTS(!config.use_legacy_predictors && !config.use_legacy_caches &&
                 !config.use_tree_inflight);

  LayerTimes acc;
  EngineTimes eng;
  LinkProbe link;
  link.submissions.reserve(2 * in.records());
  TimedSource source(in.source(), acc);
  TelemetryPlane plane;
  DivergenceDetector detector_storage;
  TelemetryPlane* telemetry = w.telemetry ? &plane : nullptr;
  DivergenceDetector* detector = w.telemetry ? &detector_storage : nullptr;

  const std::int64_t t_begin = now_ns();

  // Pass 1 (metadata), exactly as run_trace_replay scans.
  FlatHashMap<UserId> user_index;
  std::uint64_t record_count = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  source.reset();
  {
    TraceRecord r;
    double prev = 0.0;
    while (source.next(&r)) {
      SPECPF_EXPECTS(record_count == 0 || r.time >= prev);
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
  const std::int64_t t_scanned = now_ns();

  TimedPredictor predictor(
      make_replay_predictor(config.predictor_kind, user_index.size(), false),
      acc);
  TimedPolicy policy(make_policy_by_name(w.policy), acc);
  StackRuntimeConfig rc;
  rc.bandwidth = config.bandwidth;
  rc.item_size = config.item_size;
  rc.num_users = user_index.size();
  rc.cache_capacity = config.cache_capacity;
  rc.cache_kind = config.cache_kind;
  rc.estimator_model = config.estimator_model;
  rc.max_prefetch_per_request = config.max_prefetch_per_request;
  rc.seed = config.seed;
  const double duration = record_count >= 2 ? last_time - first_time : 0.0;
  rc.lambda_prior = std::max(
      1e-9, safe_div(static_cast<double>(record_count), duration, 0.0));
  rc.enable_load_sensor = config.enable_load_sensor;
  rc.sensor = config.sensor;
  rc.telemetry = telemetry;
  std::unique_ptr<TimedGovernor> governor;
  if (!config.governor.empty()) {
    auto inner = make_governor_by_name(config.governor, config.governor_config);
    SPECPF_EXPECTS(inner != nullptr);
    governor = std::make_unique<TimedGovernor>(std::move(inner), acc);
    rc.governor = governor.get();
  }
  LinkProbe* probe = &link;
  rc.retrieval_observer = [probe](UserId, ItemId, bool) {
    probe->submissions.push_back(probe->sim->now());
    probe->max_active =
        std::max(probe->max_active, probe->runtime->server().active_jobs());
  };

  Simulator sim;
  StackRuntime runtime(sim, predictor, policy, std::move(rc));
  link.sim = &sim;
  link.runtime = &runtime;
  if (detector != nullptr) {
    detector->configure(DivergenceConfig{});
    detector->watch_plane(*telemetry);
  }

  const double t0 = first_time;
  const std::size_t warmup_records = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(record_count));
  if (warmup_records == 0) runtime.begin_measurement();

  // Steps the engine through every event at or before `limit`, the way
  // run_until would, timing each step() and classifying it.
  auto run_engine = [&](double limit) {
    std::int64_t t = now_ns();
    for (;;) {
      const double next = sim.next_event_time();
      if (next == kInf || next > limit) break;
      const std::int64_t inner_before = acc.inner_ns();
      eng.in_request = false;
      sim.step();
      const std::int64_t e = now_ns();
      if (eng.in_request) {
        eng.request_step_ns += e - t;
        ++eng.request_events;
      } else {
        eng.other_step_ns += e - t;
        eng.other_inner_ns += acc.inner_ns() - inner_before;
        ++eng.other_events;
      }
      eng.max_pending = std::max(eng.max_pending, sim.pending());
      t = e;
    }
    if (limit != kInf) sim.run_until(limit);
    eng.peek_ns += now_ns() - t;
  };

  // Pass 2 (schedule), with the same window boundaries, warmup event and
  // horizon snapshot as run_trace_replay.
  source.reset();
  const std::int64_t t_built = now_ns();
  std::int64_t seg_start = t_built;
  std::int64_t seg_next = acc.next_ns;
  auto close_segment = [&] {
    eng.schedule_ns += (now_ns() - seg_start) - (acc.next_ns - seg_next);
  };
  {
    TraceRecord r;
    std::size_t index = 0;
    while (source.next(&r)) {
      const double when = r.time - t0;
      SPECPF_EXPECTS(when >= 0.0);
      if (index > 0 && index % config.stream_window == 0) {
        close_segment();
        run_engine(when);
        if (detector != nullptr) detector->evaluate();
        seg_start = now_ns();
        seg_next = acc.next_ns;
      }
      if (warmup_records > 0 && index == warmup_records) {
        sim.schedule_at(when, [&runtime] { runtime.begin_measurement(); });
      }
      const UserId user = *user_index.find(r.user);
      sim.schedule_at(when, [&runtime, &eng, user, item = r.item] {
        const std::int64_t h0 = now_ns();
        runtime.handle_request(user, item);
        eng.handler_ns += now_ns() - h0;
        eng.in_request = true;
      });
      ++index;
    }
  }
  ServerStats horizon_stats;
  sim.schedule_at(last_time - t0,
                  [&] { horizon_stats = runtime.snapshot_server(); });
  close_segment();
  run_engine(kInf);
  if (detector != nullptr) detector->evaluate();
  const ProxySimResult result = runtime.finalize(horizon_stats, policy.name());
  const std::int64_t t_end = now_ns();

  // Attribution. Decorator time inside request events is carved out of
  // handle_request; the per-event dispatch cost measured on request events
  // (step() minus the handler) is charged to every other event too, and
  // the rest of those events is the link's completion path.
  const double n = static_cast<double>(record_count);
  const std::int64_t request_inner = acc.inner_ns() - eng.other_inner_ns;
  const double request_dispatch =
      static_cast<double>(eng.request_step_ns - eng.handler_ns);
  const double per_event_dispatch =
      request_dispatch / static_cast<double>(std::max<std::uint64_t>(
                             1, eng.request_events));
  const double other_dispatch =
      per_event_dispatch * static_cast<double>(eng.other_events);
  const double self_ns = static_cast<double>(eng.handler_ns - request_inner);
  const double dispatch_ns =
      request_dispatch + other_dispatch + static_cast<double>(eng.peek_ns);
  const double completion_ns =
      static_cast<double>(eng.other_step_ns - eng.other_inner_ns) -
      other_dispatch;
  const std::int64_t pass2_next = acc.next_ns - source.scan_next_ns();

  TracedRun out;
  out.wall_s = seconds(t_end - t_begin);
  out.digest = digest(result);
  const double scan_s = seconds(t_scanned - t_begin);
  const double build_s = seconds(t_built - t_scanned);
  out.covered_s = scan_s + build_s +
                  seconds(pass2_next + eng.schedule_ns + eng.request_step_ns +
                          eng.other_step_ns + eng.peek_ns);
  const double selected = static_cast<double>(acc.selected);
  out.metrics = {
      {"workload.next_ns", static_cast<double>(acc.next_ns) / n},
      {"workload.scan_s", scan_s},
      {"sim.build_s", build_s},
      {"sim.request_self_ns", self_ns / n},
      {"predict.observe_ns", static_cast<double>(acc.observe_ns) / n},
      {"predict.predict_ns", static_cast<double>(acc.predict_ns) / n},
      {"predict.candidates_per_call",
       safe_div(static_cast<double>(acc.candidates),
                static_cast<double>(acc.predict_calls), 0.0)},
      {"predict.useful_frac", result.prefetch_useful_fraction},
      {"policy.select_ns", static_cast<double>(acc.select_ns) / n},
      {"policy.selected_frac",
       safe_div(selected, static_cast<double>(acc.viable), 0.0)},
      {"control.admit_ns", static_cast<double>(acc.control_ns) / n},
      {"control.throttled_frac",
       governor ? safe_div(selected - static_cast<double>(acc.admitted),
                           selected, 0.0)
                : 0.0},
      {"des.dispatch_ns", dispatch_ns / n},
      {"des.schedule_ns", static_cast<double>(eng.schedule_ns) / n},
      {"des.events_per_request",
       static_cast<double>(sim.events_executed()) / n},
      {"des.max_pending", static_cast<double>(eng.max_pending)},
      {"net.completion_event_ns", completion_ns / n},
      {"net.jobs_per_request",
       static_cast<double>(link.submissions.size()) / n},
      {"net.max_active_jobs", static_cast<double>(link.max_active)},
      {"net.sim_demand_sojourn_s", result.mean_demand_sojourn},
  };
  out.submissions = std::move(link.submissions);
  return out;
}

TracedRun traced_sharded(const Workload& w, Inputs& in) {
  LayerTimes acc;
  const ShardedReplayConfig config = w.sharded_config();
  const PolicyFactory factory = [&acc, name = w.policy] {
    return std::make_unique<TimedPolicy>(make_policy_by_name(name), acc);
  };

  const std::int64_t t_begin = now_ns();
  const TraceFile file(in.path());
  TraceCursor cursor(file);
  TimedSource source(cursor, acc);
  ShardedSim sim(source, config, factory);
  const std::int64_t t_built = now_ns();
  const std::int64_t next_before_run = acc.next_ns;
  const ShardedReplayResult result = sim.run();
  const std::int64_t t_end = now_ns();

  const double n = static_cast<double>(in.records());
  const std::int64_t run_next = acc.next_ns - next_before_run;
  const std::int64_t self_ns = (t_end - t_built) - run_next - acc.select_ns;
  std::uint64_t events = 0;
  std::uint64_t max_events = 0;
  for (const ShardLoadStats& s : result.shard_load) {
    events += s.events_executed;
    max_events = std::max(max_events, s.events_executed);
  }
  const ProxySimResult& m = result.merged;
  const double mean_events =
      static_cast<double>(events) / static_cast<double>(result.num_shards);

  TracedRun out;
  out.wall_s = seconds(t_end - t_begin);
  // The sharded layers split one interval (scan, build, then run() cut into
  // decode, policy and the rest), so they close by construction.
  out.covered_s = out.wall_s;
  out.digest = digest(result);
  out.metrics = {
      {"workload.next_ns", static_cast<double>(acc.next_ns) / n},
      {"workload.scan_s", seconds(source.scan_end_ns() - t_begin)},
      {"sim.build_s", seconds(t_built - source.scan_end_ns())},
      {"sim.request_self_ns", static_cast<double>(self_ns) / n},
      {"predict.useful_frac", m.prefetch_useful_fraction},
      {"policy.select_ns", static_cast<double>(acc.select_ns) / n},
      {"policy.selected_frac",
       safe_div(static_cast<double>(acc.selected),
                static_cast<double>(acc.viable), 0.0)},
      {"control.throttled_frac",
       safe_div(static_cast<double>(m.throttled_prefetches),
                static_cast<double>(m.throttled_prefetches + m.prefetch_jobs),
                0.0)},
      {"des.events_per_request", static_cast<double>(events) / n},
      {"net.jobs_per_request",
       safe_div(static_cast<double>(m.demand_jobs + m.prefetch_jobs),
                static_cast<double>(m.requests), 0.0)},
      {"net.sim_demand_sojourn_s", m.mean_demand_sojourn},
      {"shard.epochs_per_krequest",
       static_cast<double>(result.epochs) / (n / 1000.0)},
      {"shard.cross_per_request",
       static_cast<double>(result.cross_shard_events) / n},
      {"shard.event_skew",
       safe_div(static_cast<double>(max_events), mean_events, 0.0)},
  };
  return out;
}

}  // namespace specpf::bench
