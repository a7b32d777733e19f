#include "shard/sharded_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "control/governor.hpp"
#include "des/simulator.hpp"
#include "obs/divergence.hpp"
#include "shard/mailbox.hpp"
#include "sim/stack_runtime.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace specpf {

void ShardedReplayConfig::validate() const {
  stack.validate();
  SPECPF_EXPECTS(num_shards >= 1);
  SPECPF_EXPECTS(backbone_latency > 0.0);
  SPECPF_EXPECTS(backbone_bandwidth > 0.0);
  // Sharded telemetry goes through the fleet, one plane per shard; the
  // detector likewise attaches fleet-wide through this config.
  SPECPF_EXPECTS(stack.telemetry == nullptr);
  SPECPF_EXPECTS(stack.divergence == nullptr);
  SPECPF_EXPECTS(telemetry == nullptr || telemetry->size() == num_shards);
  SPECPF_EXPECTS(divergence == nullptr || telemetry != nullptr);
  SPECPF_EXPECTS(!abort_on_divergence || divergence != nullptr);
}

// One region: an independent engine plus its data plane. `runtime` is null
// for shards that own no trace records (they can still receive backbone
// traffic for items homed there, so the engine and origin link exist
// regardless).
struct ShardedSim::Shard {
  explicit Shard(std::size_t num_shards) : outbox(num_shards) {}

  std::uint32_t id = 0;
  Simulator sim;
  /// Raw→dense user ids, first-appearance order within the shard (built in
  /// the metadata scan; the feeder looks ids up as it schedules).
  FlatHashMap<UserId> user_index;
  /// Metadata-scan accumulators for this shard's slice of the trace.
  std::uint64_t scan_count = 0;
  double scan_first = 0.0;
  double scan_last = 0.0;
  std::unique_ptr<PredictorPlane> predictor;
  std::unique_ptr<PrefetchPolicy> policy;
  std::unique_ptr<OriginLink> origin;
  /// Shard-local prefetch governor (null when the run is ungoverned).
  /// Only this shard's thread touches it between barriers; the driver
  /// thread pushes the fleet setpoint in at the barrier.
  std::unique_ptr<PrefetchGovernor> governor;
  std::unique_ptr<StackRuntime> runtime;
  ShardMailbox outbox;
  ServerStats horizon;
  BackboneStats backbone_horizon;

  /// This shard's telemetry plane (null when the run carries none) and the
  /// origin-uplink gauge ids the driver refreshes at barriers.
  TelemetryPlane* telemetry = nullptr;
  TelemetryRegistry::GaugeId g_origin_queue = 0;
  TelemetryRegistry::GaugeId g_origin_util = 0;
  TelemetryRegistry::GaugeId g_origin_depth = 0;
  TelemetryRegistry::GaugeId g_origin_slowdown = 0;

  /// Mailbox traffic totals for the per-shard breakdown.
  std::uint64_t mailbox_sent = 0;
  std::uint64_t mailbox_received = 0;
};

namespace {

/// Shard s > 0 draws a counter-based stream off the root seed; shard 0
/// inherits the root itself so a 1-shard run is bit-identical to the
/// unsharded run_trace_replay with the same config.
std::uint64_t shard_seed(std::uint64_t root_seed, std::uint32_t shard) {
  if (shard == 0) return root_seed;
  return Rng(root_seed).substream(shard).next_u64();
}

}  // namespace

ShardedSim::ShardedSim(const Trace& trace, const ShardedReplayConfig& config,
                       const PolicyFactory& make_policy)
    : config_(config) {
  SPECPF_EXPECTS(!trace.empty());
  SPECPF_EXPECTS(trace.is_time_ordered());
  owned_source_ = std::make_unique<TraceVectorSource>(trace);
  init(*owned_source_, make_policy);
}

ShardedSim::ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
                       const PolicyFactory& make_policy)
    : config_(config) {
  init(source, make_policy);
}

void ShardedSim::init(TraceSource& source, const PolicyFactory& make_policy) {
  config_.validate();
  SPECPF_EXPECTS(static_cast<bool>(make_policy));
  source_ = &source;
  const std::size_t S = config_.num_shards;

  shards_.reserve(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<Shard>(S));
    shards_.back()->id = s;
  }

  // Metadata scan (one sequential pass): global count/time span, and per
  // shard the record count, time span, and densified user ids
  // (first-appearance order within the shard — the same order iterating
  // the shard's partition_by_user sub-trace would produce). Warmup and
  // horizon instants come from the *global* trace so every shard switches
  // measurement on at the same simulated time, exactly where the unsharded
  // replay would.
  source.reset();
  {
    TraceRecord r;
    double prev = 0.0;
    double last = 0.0;
    while (source.next(&r)) {
      SPECPF_EXPECTS(total_records_ == 0 || r.time >= prev);  // time-ordered
      prev = r.time;
      if (total_records_ == 0) t0_ = r.time;
      last = r.time;
      Shard& shard = *shards_[shard_of_user(r.user, S)];
      if (shard.scan_count == 0) shard.scan_first = r.time;
      shard.scan_last = r.time;
      ++shard.scan_count;
      bool inserted = false;
      UserId& dense = shard.user_index.get_or_insert(r.user, &inserted);
      if (inserted) dense = static_cast<UserId>(shard.user_index.size() - 1);
      ++total_records_;
    }
    SPECPF_EXPECTS(total_records_ > 0);
    end_time_ = last - t0_;
  }
  warmup_records_ = static_cast<std::size_t>(
      config_.stack.warmup_fraction * static_cast<double>(total_records_));

  const bool control_plane_on =
      !config_.stack.governor.empty() || config_.stack.enable_load_sensor;

  for (std::uint32_t s = 0; s < S; ++s) {
    Shard* shard = shards_[s].get();
    shard->origin =
        std::make_unique<OriginLink>(shard->sim, config_.backbone_bandwidth);
    if (control_plane_on) shard->origin->enable_sensor(config_.stack.sensor);
    if (config_.telemetry != nullptr) {
      // Origin-uplink gauges register *before* the runtime builds (the
      // runtime seals the plane); the driver refreshes them at barriers.
      shard->telemetry = &config_.telemetry->shard(s);
      TelemetryRegistry& reg = shard->telemetry->registry();
      shard->g_origin_queue = reg.register_gauge("origin.queue_depth", "jobs");
      shard->g_origin_util = reg.register_gauge("origin.util_ewma", "ratio");
      shard->g_origin_depth = reg.register_gauge("origin.depth_ewma", "jobs");
      shard->g_origin_slowdown =
          reg.register_gauge("origin.slowdown_ewma", "ratio");
    }

    if (shard->scan_count == 0) {
      // No users here; the origin link still serves remote-homed items.
      // Its telemetry plane seals with just the origin gauges (no runtime
      // registers anything further); barrier sampling still records rows.
      // Warmup reset / horizon snapshot are scheduled by the feeder at the
      // same boundary records as everyone else's.
      if (shard->telemetry != nullptr) shard->telemetry->seal();
      continue;
    }

    shard->predictor = make_replay_predictor(config_.stack.predictor_kind,
                                             shard->user_index.size());
    shard->policy = make_policy();
    if (policy_name_.empty()) policy_name_ = shard->policy->name();

    StackRuntimeConfig rt;
    rt.bandwidth = config_.stack.bandwidth;
    rt.item_size = config_.stack.item_size;
    rt.num_users = shard->user_index.size();
    rt.cache_capacity = config_.stack.cache_capacity;
    rt.cache_kind = config_.stack.cache_kind;
    rt.estimator_model = config_.stack.estimator_model;
    rt.max_prefetch_per_request = config_.stack.max_prefetch_per_request;
    rt.seed = shard_seed(config_.stack.seed, s);
    // Matches the partitioned sub-trace's mean_request_rate bit-for-bit
    // (duration = last − first on the same doubles, rate 0 if degenerate).
    const double duration =
        shard->scan_count >= 2 ? shard->scan_last - shard->scan_first : 0.0;
    rt.lambda_prior = std::max(
        1e-9,
        safe_div(static_cast<double>(shard->scan_count), duration, 0.0));
    rt.enable_load_sensor = config_.stack.enable_load_sensor;
    rt.sensor = config_.stack.sensor;
    rt.telemetry = shard->telemetry;  // runtime registers its set and seals
    if (!config_.stack.governor.empty()) {
      // One governor per shard: governors carry control state, so shards
      // cannot share an instance (same reason policies are per-shard).
      shard->governor = make_governor_by_name(config_.stack.governor,
                                              config_.stack.governor_config);
      SPECPF_EXPECTS(shard->governor != nullptr);
      rt.governor = shard->governor.get();
    }
    if (S > 1) {
      // Cross-shard traffic capture. Thread-local by construction: the
      // observer only appends to this shard's own outbox.
      Shard* raw = shard;
      rt.retrieval_observer = [raw, S](UserId, ItemId item, bool is_prefetch) {
        const std::uint32_t dst = home_shard(item, S);
        if (dst == raw->id) return;
        raw->outbox.push(dst, {raw->sim.now(), item, is_prefetch});
      };
    }
    shard->runtime = std::make_unique<StackRuntime>(
        shard->sim, *shard->predictor, *shard->policy, std::move(rt));

    // With no warmup prefix, measurement must be live before the feeder
    // delivers the first request.
    if (warmup_records_ == 0) shard->runtime->begin_measurement();
  }

  // Attach the fleet detector now that every shard's plane is sealed. One
  // detector watching all planes under per-shard name prefixes makes the
  // fleet verdict the worst shard's with no extra merge step.
  if (config_.divergence != nullptr) {
    DivergenceDetector& det = *config_.divergence;
    if (!det.configured()) det.configure(DivergenceConfig{});
    if (det.num_signals() == 0) {
      for (std::uint32_t s = 0; s < S; ++s) {
        det.watch_plane(*shards_[s]->telemetry,
                        "shard" + std::to_string(s) + "/");
      }
    }
  }

  // Prime the feeder; records flow into the engines epoch-by-epoch during
  // run(). A whole-trace epoch still lands each batch in the engine's
  // O(1)-pop sorted tier because feeding happens before that epoch's pops.
  source.reset();
  have_pending_ = source.next(&pending_record_);
  SPECPF_ENSURES(have_pending_);
}

ShardedSim::~ShardedSim() = default;

void ShardedSim::schedule_warmup_events() {
  // The feeder calls this exactly when the warmup-boundary record (global
  // index warmup_records_) is the next to be scheduled, so shard s has
  // exactly its slice of the global warmup prefix in its engine — the
  // begin-measurement event takes the same insertion position it did when
  // the whole partitioned sub-trace was scheduled up front. Every shard
  // has only run to the previous epoch barrier, which is before this
  // record's arrival time, so the schedule is legal fleet-wide.
  const double warmup_time = pending_record_.time - t0_;
  for (auto& shard : shards_) {
    OriginLink* origin = shard->origin.get();
    if (shard->runtime) {
      StackRuntime* runtime = shard->runtime.get();
      shard->sim.schedule_at(warmup_time, [runtime, origin] {
        runtime->begin_measurement();
        origin->reset_stats();
      });
    } else {
      shard->sim.schedule_at(warmup_time, [origin] { origin->reset_stats(); });
    }
  }
}

void ShardedSim::schedule_horizons() {
  for (auto& shard : shards_) {
    if (shard->runtime) {
      shard->sim.schedule_at(end_time_, [raw = shard.get()] {
        raw->horizon = raw->runtime->snapshot_server();
        raw->backbone_horizon = raw->origin->stats();
      });
    } else {
      shard->sim.schedule_at(end_time_, [raw = shard.get()] {
        raw->backbone_horizon = raw->origin->stats();
      });
    }
  }
}

void ShardedSim::feed_records(double epoch_end) {
  const std::size_t S = shards_.size();
  while (have_pending_) {
    const double when = pending_record_.time - t0_;
    if (when > epoch_end) return;
    SPECPF_EXPECTS(when >= 0.0);
    if (warmup_records_ > 0 && fed_index_ == warmup_records_) {
      schedule_warmup_events();
    }
    Shard& shard = *shards_[shard_of_user(pending_record_.user, S)];
    const UserId user = *shard.user_index.find(pending_record_.user);
    StackRuntime* runtime = shard.runtime.get();
    shard.sim.schedule_at(when, [runtime, user, item = pending_record_.item] {
      runtime->handle_request(user, item);
    });
    ++fed_index_;
    have_pending_ = source_->next(&pending_record_);
    if (!have_pending_) schedule_horizons();
  }
}

double ShardedSim::fleet_next_event_time() {
  double t_min = std::numeric_limits<double>::infinity();
  for (auto& shard : shards_) {
    t_min = std::min(t_min, shard->sim.next_event_time());
  }
  return t_min;
}

void ShardedSim::run_epoch(double epoch_end) {
  if (!pool_) {
    for (auto& shard : shards_) shard->sim.run_until(epoch_end);
    return;
  }
  // One task vector per epoch barrier (S entries), not per-request.
  std::vector<std::function<void()>> tasks;  // lint:allow(std::function)
  tasks.reserve(shards_.size());
  for (auto& shard : shards_) {
    tasks.emplace_back(
        [raw = shard.get(), epoch_end] { raw->sim.run_until(epoch_end); });
  }
  auto futures = pool_->submit_batch(std::move(tasks));
  for (auto& f : futures) f.get();
}

void ShardedSim::exchange_mailboxes() {
  const std::size_t S = shards_.size();
  if (S == 1) return;
  const double latency = config_.backbone_latency;
  const double size = config_.stack.item_size;
  // Destination-major, source 0..S-1: the canonical order that pins the
  // destination engine's insertion sequence numbers (and hence the whole
  // run) independent of worker thread count.
  for (std::size_t dst = 0; dst < S; ++dst) {
    Shard& d = *shards_[dst];
    OriginLink* origin = d.origin.get();
    for (std::size_t src = 0; src < S; ++src) {
      std::vector<RemoteFetch>& row = shards_[src]->outbox.row(dst);
      shards_[src]->mailbox_sent += row.size();
      d.mailbox_received += row.size();
      for (const RemoteFetch& f : row) {
        ++cross_shard_events_;
        d.sim.schedule_at(f.send_time + latency,
                          [origin, size, pf = f.is_prefetch] {
                            origin->submit(size, pf);
                          });
      }
      row.clear();
    }
  }
}

void ShardedSim::exchange_setpoints() {
  if (shards_.size() == 1) return;
  double sum = 0.0;
  std::size_t governed = 0;
  for (const auto& shard : shards_) {
    if (!shard->governor || !shard->runtime) continue;
    sum += shard->governor->epoch_signal(shard->runtime->load_signals());
    ++governed;
  }
  if (governed == 0) return;
  const double fleet = sum / static_cast<double>(governed);
  for (const auto& shard : shards_) {
    if (shard->governor) shard->governor->set_fleet_signal(fleet);
  }
}

void ShardedSim::sample_telemetry(double now) {
  if (config_.telemetry == nullptr) return;
  // Driver thread, canonical shard order. Every event a shard executed
  // this epoch is <= now, and mailbox deliveries land >= now, so the
  // forced barrier row keeps each recorder's timestamps monotone.
  for (auto& shard : shards_) {
    TelemetryRegistry& reg = shard->telemetry->registry();
    reg.set_gauge(shard->g_origin_queue,
                  static_cast<double>(shard->origin->active_jobs()));
    const LoadSignals& sig = shard->origin->load_signals();
    reg.set_gauge(shard->g_origin_util, sig.utilization);
    reg.set_gauge(shard->g_origin_depth, sig.queue_depth);
    reg.set_gauge(shard->g_origin_slowdown, sig.slowdown);
    shard->telemetry->sample_now(now);
  }
}

ShardedReplayResult ShardedSim::run() {
  SPECPF_EXPECTS(!ran_);
  ran_ = true;

  const std::size_t threads = config_.num_threads == 0
                                  ? std::max<std::size_t>(
                                        1, std::thread::hardware_concurrency())
                                  : config_.num_threads;
  if (threads > 1 && shards_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(
        std::min(threads, shards_.size()));
  }

  // Conservative epoch loop. Lookahead = backbone latency: every event a
  // shard emits during [t_min, t_min + L) is delivered at send + L >=
  // t_min + L, i.e. never inside a window anyone already executed. Epochs
  // are anchored at the fleet-wide earliest pending event — engine events
  // and the feeder's next unscheduled trace record alike, so the epoch
  // sequence is identical to the historical whole-trace-prescheduled
  // driver's — which also fast-forwards through idle stretches instead of
  // spinning fixed-width windows over them.
  const double lookahead = config_.backbone_latency;
  bool aborted = false;
  for (;;) {
    double t_min = fleet_next_event_time();
    if (have_pending_) {
      t_min = std::min(t_min, pending_record_.time - t0_);
    }
    if (!std::isfinite(t_min)) break;
    // Feed this window's records before its pops: each batch lands in the
    // destination engine's O(1)-pop sorted tier, and occupancy stays at
    // ~one epoch's worth of arrivals instead of the whole trace.
    feed_records(t_min + lookahead);
    run_epoch(t_min + lookahead);
    ++epochs_;
    exchange_mailboxes();
    exchange_setpoints();
    sample_telemetry(t_min + lookahead);
    // Epoch barriers are the fleet detector's evaluation instants: the
    // forced sample above just refreshed every shard's gauge rows, and the
    // driver thread owns all state here. Pure observation unless abort is
    // armed.
    if (config_.divergence != nullptr &&
        config_.divergence->evaluate() == StabilityVerdict::kDivergent &&
        config_.abort_on_divergence) {
      aborted = true;
      break;
    }
    if constexpr (kAuditBuild) {
      // Epoch-barrier sweep, sampled at power-of-two epochs so the audit
      // cost stays logarithmic in run length; every shard's whole slice
      // (engine slab, cache arenas, predictor arena, in-flight accounting)
      // is re-derived from scratch. The barrier is the earliest point the
      // corruption is observable fleet-wide, so a failure here names the
      // epoch that introduced it.
      if ((epochs_ & (epochs_ - 1)) == 0) audit_fleet();
    }
  }
  if constexpr (kAuditBuild) audit_fleet();  // final sweep before merging
  // Post-drain verdict refresh (no-op after an abort: evaluate() skips
  // signals with no rows newer than their cursor).
  if (config_.divergence != nullptr) config_.divergence->evaluate();

  if (aborted) {
    // The scheduled end_time_ horizon snapshots never ran: snapshot every
    // shard at the abort barrier instead, driver thread, canonical order,
    // so the merge below covers the simulated prefix.
    for (auto& shard : shards_) {
      if (shard->runtime) shard->horizon = shard->runtime->snapshot_server();
      shard->backbone_horizon = shard->origin->stats();
    }
  }

  // Merge in canonical shard order (0..S-1), on this thread.
  ShardedReplayResult out;
  out.num_shards = shards_.size();
  out.epochs = epochs_;
  out.cross_shard_events = cross_shard_events_;
  SimMetrics merged_metrics;
  StackAggregates merged_agg;
  std::vector<ServerStats> horizons;
  std::vector<BackboneStats> backbones;
  horizons.reserve(shards_.size());
  backbones.reserve(shards_.size());
  out.per_shard.reserve(shards_.size());
  out.shard_load.reserve(shards_.size());
  for (const auto& shard : shards_) {
    backbones.push_back(shard->backbone_horizon);
    out.shard_load.push_back({shard->sim.events_executed(),
                              shard->mailbox_sent, shard->mailbox_received});
    if (!shard->runtime) {  // userless shard: origin accounting only
      out.per_shard.emplace_back();
      out.per_shard.back().policy = policy_name_;
      continue;
    }
    merged_metrics.merge(shard->runtime->metrics());
    merged_agg.merge(shard->runtime->aggregates());
    horizons.push_back(shard->horizon);
    out.per_shard.push_back(shard->runtime->finalize(shard->horizon,
                                                     policy_name_));
  }
  out.merged = assemble_stack_result(merged_metrics,
                                     merge_server_stats(horizons), merged_agg,
                                     policy_name_);
  out.backbone = merge_backbone_stats(backbones);
  return out;
}

void ShardedSim::audit_fleet() const {
  AuditReport report;
  for (const auto& shard : shards_) {
    const AuditScope scope(report, "shard " + std::to_string(shard->id));
    if (shard->runtime) {
      shard->runtime->audit(report);  // includes engine slab + telemetry
    } else {
      shard->sim.audit(report);  // userless shard: engine only
      if (shard->telemetry != nullptr) shard->telemetry->audit(report);
    }
  }
  report.require();
}

ShardedReplayResult run_sharded_replay(const Trace& trace,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy) {
  ShardedSim sim(trace, config, make_policy);
  return sim.run();
}

ShardedReplayResult run_sharded_replay(TraceSource& source,
                                       const ShardedReplayConfig& config,
                                       const PolicyFactory& make_policy) {
  ShardedSim sim(source, config, make_policy);
  return sim.run();
}

}  // namespace specpf
