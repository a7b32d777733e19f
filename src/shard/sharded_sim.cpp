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

std::string ShardedReplayConfig::check() const {
  if (std::string error = stack.check(); !error.empty()) return error;
  if (num_shards < 1) {
    return config_error("num_shards", "must be >= 1", num_shards);
  }
  // The lookahead must be finite for S > 1 epochs to advance.
  if (!positive_finite(backbone_latency)) {
    return config_error("backbone_latency", "must be positive and finite",
                        backbone_latency);
  }
  if (!positive_finite(backbone_bandwidth)) {
    return config_error("backbone_bandwidth", "must be positive and finite",
                        backbone_bandwidth);
  }
  // One plane serves one engine: a single stack plane only at S = 1 and
  // never beside a fleet.
  if (stack.telemetry != nullptr && telemetry != nullptr) {
    return config_error("telemetry", "must be null when stack.telemetry is set",
                        "a fleet");
  }
  if (stack.telemetry != nullptr && num_shards != 1) {
    return config_error("num_shards", "must be 1 when stack.telemetry is set",
                        num_shards);
  }
  if (telemetry != nullptr && telemetry->size() != num_shards) {
    return config_error("telemetry", "fleet size must equal num_shards",
                        telemetry->size());
  }
  // The detector reads gauge streams; without a plane there is nothing to
  // watch.
  if (stack.divergence != nullptr && stack.telemetry == nullptr &&
      telemetry == nullptr) {
    return config_error("stack.divergence", "needs a telemetry plane or fleet",
                        "no plane");
  }
  return {};
}

void ShardedReplayConfig::validate() const { expect_valid(check()); }

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
  std::unique_ptr<PrefetchPolicy> owned_policy;
  PrefetchPolicy* policy = nullptr;  ///< owned_policy or the caller's
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
/// inherits the root itself, so a 1-shard run seeds its stack exactly as
/// the config says.
std::uint64_t shard_seed(std::uint64_t root_seed, std::uint32_t shard) {
  if (shard == 0) return root_seed;
  return Rng(root_seed).substream(shard).next_u64();
}

/// The metadata scan's item-id rejection, kept out of line so the scan
/// loop carries one test and a branch.
[[noreturn]] [[gnu::cold, gnu::noinline]] void reject_item(
    std::uint64_t record, std::uint64_t item) {
  throw ContractViolation("precondition failed: trace record " +
                          std::to_string(record) + ": item " +
                          std::to_string(item) +
                          " does not fit the 32-bit in-flight key");
}

}  // namespace

ShardedSim::ShardedSim(const Trace& trace, const ShardedReplayConfig& config,
                       const PolicyFactory& make_policy)
    : config_(config) {
  SPECPF_EXPECTS(!trace.empty());
  SPECPF_EXPECTS(trace.is_time_ordered());
  owned_source_ = std::make_unique<TraceVectorSource>(trace);
  init(*owned_source_, &make_policy, nullptr);
}

ShardedSim::ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
                       const PolicyFactory& make_policy)
    : config_(config) {
  init(source, &make_policy, nullptr);
}

ShardedSim::ShardedSim(TraceSource& source, const ShardedReplayConfig& config,
                       PrefetchPolicy& policy)
    : config_(config) {
  SPECPF_EXPECTS(config_.num_shards == 1);
  init(source, nullptr, &policy);
}

ShardedSim::Shard& ShardedSim::shard_of(std::uint32_t user) {
  const std::size_t S = shards_.size();
  return *shards_[S == 1 ? 0 : shard_of_user(user, S)];
}

void ShardedSim::init(TraceSource& source, const PolicyFactory* make_policy,
                      PrefetchPolicy* borrowed_policy) {
  config_.validate();
  SPECPF_EXPECTS(borrowed_policy != nullptr ||
                 static_cast<bool>(*make_policy));
  // Only a generative source carries a graph for the oracle to read.
  if (config_.stack.predictor_kind == PredictorKind::kOracle &&
      source.graph() == nullptr) {
    expect_valid(config_error("predictor_kind",
                              "oracle needs a source with a generating graph",
                              "oracle"));
  }
  source_ = &source;
  const std::size_t S = config_.num_shards;

  shards_.reserve(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<Shard>(S));
    shards_.back()->id = s;
  }

  // Metadata scan (one sequential pass): global count/time span, and per
  // shard the record count, time span, and densified user ids
  // (first-appearance order among the records whose user maps to the
  // shard, walked in trace order). Warmup and
  // horizon instants come from the *global* trace so every shard switches
  // measurement on at the same simulated time, exactly where the unsharded
  // replay would. The global accumulators are locals so they stay in
  // registers across the virtual next() call. The scan is also the input
  // edge for item ids: the runtime packs (user, item) into one 64-bit
  // in-flight key, so an item needing more than 32 bits is refused here,
  // by record, before any event runs.
  source.reset();
  {
    TraceRecord r;
    std::uint64_t total = 0;
    double first = 0.0;
    double last = 0.0;
    while (source.next(&r)) {
      SPECPF_EXPECTS(total == 0 || r.time >= last);  // time-ordered
      if ((r.item >> 32) != 0) reject_item(total, r.item);
      if (total == 0) first = r.time;
      last = r.time;
      Shard& shard = shard_of(r.user);
      if (shard.scan_count == 0) shard.scan_first = r.time;
      shard.scan_last = r.time;
      ++shard.scan_count;
      bool inserted = false;
      UserId& dense = shard.user_index.get_or_insert(r.user, &inserted);
      if (inserted) dense = static_cast<UserId>(shard.user_index.size() - 1);
      ++total;
    }
    total_records_ = total;
    t0_ = first;
    end_time_ = last - first;
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
    shard->telemetry = config_.telemetry != nullptr
                           ? &config_.telemetry->shard(s)
                           : config_.stack.telemetry;
    if (shard->telemetry != nullptr && S > 1) {
      // Origin-uplink gauges register *before* the runtime builds (the
      // runtime seals the plane); the driver refreshes them at barriers.
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

    shard->predictor = make_predictor_plane(
        config_.stack.predictor_kind,
        {.num_users = shard->user_index.size(), .graph = source.graph()});
    if (borrowed_policy != nullptr) {
      shard->policy = borrowed_policy;
    } else {
      shard->owned_policy = (*make_policy)();
      SPECPF_EXPECTS(shard->owned_policy != nullptr);
      shard->policy = shard->owned_policy.get();
    }
    if (policy_name_.empty()) policy_name_ = shard->policy->name();

    StackRuntimeConfig rt;
    static_cast<StackConfig&>(rt) = config_.stack;
    rt.num_users = shard->user_index.size();
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
    StackRuntime* runtime = shard->runtime.get();
    shard->sim.bind_arrivals(
        [runtime](std::uint64_t user, std::uint64_t item) {
          runtime->handle_request(static_cast<UserId>(user), item);
        });

    // With no warmup prefix, measurement must be live before the feeder
    // delivers the first request.
    if (warmup_records_ == 0) shard->runtime->begin_measurement();
  }

  // An empty source builds no runtime; its all-zero result still names
  // the policy.
  if (policy_name_.empty()) {
    policy_name_ = borrowed_policy != nullptr ? borrowed_policy->name()
                                              : (*make_policy)()->name();
  }

  // Attach the detector now that every shard's plane is sealed. Callers
  // may pre-configure thresholds and hand-pick signals; a bare detector
  // gets defaults and the standard gauge set. One detector watching all
  // planes under per-shard name prefixes makes the fleet verdict the worst
  // shard's with no extra merge step.
  if (config_.stack.divergence != nullptr) {
    DivergenceDetector& det = *config_.stack.divergence;
    if (!det.configured()) det.configure(DivergenceConfig{});
    if (det.num_signals() == 0) {
      for (std::uint32_t s = 0; s < S; ++s) {
        det.watch_plane(*shards_[s]->telemetry,
                        S > 1 ? "shard" + std::to_string(s) + "/" : "");
      }
    }
  }

  // Prime the feeder; records flow into the engines' arrival streams
  // epoch-by-epoch during run(), already in time order, so no epoch sorts
  // or heapifies them.
  source.reset();
  have_pending_ = source.next(&pending_record_);
  SPECPF_ENSURES(have_pending_ == (total_records_ > 0));
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

double ShardedSim::feed_records(double epoch_end) {
  for (std::size_t fed = 0; have_pending_; ++fed) {
    const double when = pending_record_.time - t0_;
    if (when > epoch_end) break;
    // Cap the batch: the epoch ends at this unfed arrival. Every shard has
    // run to at most the previous barrier, so scheduling it there next
    // epoch stays legal.
    if (fed == config_.stack.stream_window) return when;
    SPECPF_EXPECTS(when >= 0.0);
    if (warmup_records_ > 0 && fed_index_ == warmup_records_) {
      schedule_warmup_events();
    }
    Shard& shard = shard_of(pending_record_.user);
    const UserId user = *shard.user_index.find(pending_record_.user);
    shard.sim.push_arrival(when, user, pending_record_.item);
    ++fed_index_;
    have_pending_ = source_->next(&pending_record_);
    if (!have_pending_) schedule_horizons();
  }
  return epoch_end;
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
    for (auto& shard : shards_) {
      if (std::isinf(epoch_end)) {
        shard->sim.run();  // run_until(+inf) would move the clock to +inf
      } else {
        shard->sim.run_until(epoch_end);
      }
    }
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
  if (config_.telemetry == nullptr || shards_.size() == 1) return;
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

  // Conservative epoch loop. Lookahead = the minimum cross-shard delay:
  // every event a shard emits during [t_min, t_min + L) is delivered at
  // send + L >= t_min + L, i.e. never inside a window anyone already
  // executed. One shard has no cross-shard traffic, so its lookahead is
  // unbounded and only the stream_window cap cuts its epochs. Epochs are
  // anchored at the fleet-wide earliest pending event — engine events and
  // the feeder's next unscheduled trace record alike — which also
  // fast-forwards through idle stretches instead of spinning fixed-width
  // windows over them.
  const double lookahead = shards_.size() > 1
                               ? config_.backbone_latency
                               : std::numeric_limits<double>::infinity();
  DivergenceDetector* detector = config_.stack.divergence;
  bool aborted = false;
  for (;;) {
    double t_min = fleet_next_event_time();
    if (have_pending_) {
      t_min = std::min(t_min, pending_record_.time - t0_);
    }
    if (!std::isfinite(t_min)) break;
    // Feed this window's records before its pops: each record is a 32-byte
    // entry appended to its shard's arrival stream, and occupancy stays at
    // ~one epoch's worth of arrivals instead of the whole trace.
    const double epoch_end = feed_records(t_min + lookahead);
    run_epoch(epoch_end);
    ++epochs_;
    exchange_mailboxes();
    exchange_setpoints();
    // Barrier rows and verdicts serve the feed: once an abort has cut it,
    // the drain is judged once, post-drain, as at S = 1.
    if (!aborted) {
      sample_telemetry(epoch_end);
      // Epoch barriers are the detector's evaluation instants: the engines
      // have just caught up to real arrivals, so the gauge streams are
      // current, and the driver thread owns all state here. Pure
      // observation unless abort is armed, and an abort only cuts the feed
      // while records remain.
      if (detector != nullptr &&
          detector->evaluate() == StabilityVerdict::kDivergent &&
          config_.stack.abort_on_divergence && have_pending_) {
        // Stop the feed and snapshot every shard at this barrier (driver
        // thread, canonical order) instead of at the end_time_ horizon,
        // which is never scheduled now.
        aborted = true;
        have_pending_ = false;
        for (auto& shard : shards_) {
          if (shard->runtime) {
            shard->horizon = shard->runtime->snapshot_server();
          }
          shard->backbone_horizon = shard->origin->stats();
        }
      }
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
  // Post-drain verdict refresh (evaluate() skips signals with no rows
  // newer than their cursor).
  if (detector != nullptr) detector->evaluate();

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
  out.merged = assemble_stack_result(
      merged_metrics,
      horizons.empty() ? ServerStats{} : merge_server_stats(horizons),
      merged_agg, policy_name_);
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
