// StackRuntime — the shared machinery of the full-stack simulators: per-user
// tagged caches, the shared PS server, in-flight transfer bookkeeping,
// prefetch deferral ("prefetch when the connection is idle", paper §1),
// online parameter estimation for the policy, and metrics.
//
// One driver builds it and calls handle_request(user, item) per arrival:
// shard/sharded_sim, one runtime per shard. Its frontends are
//   * sim/trace_replay — recorded traces (ShardedSim at S = 1);
//   * sim/proxy_sim    — the generative session workload, as a
//                        SessionTraceSource replayed the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_plane.hpp"
#include "control/load_sensor.hpp"
#include "des/inline_function.hpp"
#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "obs/telemetry.hpp"
#include "policy/policy.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/metrics.hpp"
#include "util/contract.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

struct ProxySimResult;  // defined in sim/proxy_sim.hpp
class PrefetchGovernor;  // defined in control/governor.hpp

/// What configures one proxy stack: the paper's link bandwidth b, item size
/// s̄ and cache size n̄(C), the interaction model behind ĥ', the prefetch
/// depth, the root seed and the telemetry hook. The driver configs
/// (ProxySimConfig, TraceReplayConfig) and StackRuntimeConfig inherit it,
/// so these fields, their defaults and their valid ranges live here once; a
/// driver hands them to its runtime with one base assignment.
struct StackConfig {
  using CacheKind = specpf::CacheKind;

  double bandwidth = 50.0;          ///< link bandwidth b (units/s)
  double item_size = 1.0;           ///< size s̄ of every item (units)
  std::size_t cache_capacity = 64;  ///< per-user cache size n̄(C) (items)
  /// Eviction policy (the fleet-wide enum from cache/factory.hpp).
  CacheKind cache_kind = CacheKind::kLru;
  /// Which interaction model the online ĥ' estimate assumes.
  core::InteractionModel estimator_model = core::InteractionModel::kModelA;
  /// Prefetch depth: the most candidates dispatched per request.
  std::size_t max_prefetch_per_request = 8;
  /// Root seed: the random cache kind's stream (and the proxy sim's
  /// workload streams).
  std::uint64_t seed = 1;
  /// Telemetry plane to record into (borrowed; must outlive the run). The
  /// runtime registers its counters/gauges, installs the gauge-refresh
  /// source, and seals the plane at construction — so register any extra
  /// gauges (e.g. the sharded driver's origin-link set) *before* building
  /// the runtime. Same purity contract as the load sensor: hooks observe
  /// at event instants the runtime already visits, draw no randomness, and
  /// schedule nothing, so results are bit-identical with this null or
  /// installed. Null = telemetry off (one dead branch per hook site). A
  /// replay accepts a single plane at S = 1 only; a sharded run records
  /// through a TelemetryFleet in ShardedReplayConfig instead (one plane
  /// cannot serve S independent engines).
  TelemetryPlane* telemetry = nullptr;

  /// "" when every field is in range, else "<field>: <rule>, got <value>"
  /// for the first that is not: bandwidth and item size positive and
  /// finite, cache capacity and prefetch depth at least 1. Frontends call
  /// the driver config's check() at the edge and exit 2 on a message.
  std::string check() const;
};

struct StackRuntimeConfig : StackConfig {
  std::size_t num_users = 1;
  /// Request-rate estimate used until ≥100 requests are observed.
  double lambda_prior = 1.0;
  /// Observer fired on every retrieval submission (demand and prefetch),
  /// at submission time, after the job entered the local link. Pure
  /// observation: installing it never changes runtime behaviour. The
  /// sharded driver uses it to record cross-shard traffic into mailboxes;
  /// leave empty (the default) everywhere else. Inline storage (the
  /// repo-wide SBO-callable convention): installing it never allocates,
  /// and the config is consequently move-only.
  using RetrievalObserver = InlineFunction<void(UserId, ItemId, bool), 32>;
  RetrievalObserver retrieval_observer;
  /// Prefetch governor consulted before every prefetch admission (borrowed;
  /// must outlive the runtime). Null = ungoverned, today's open-loop
  /// behaviour. Installing a NoopGovernor is bit-identical to null.
  PrefetchGovernor* governor = nullptr;
  /// Run the proxy-link load sensor even without a governor (pure
  /// observation — lets ungoverned baselines report the same peak-load
  /// metrics governed runs do). Always on when a governor is installed.
  bool enable_load_sensor = false;
  LoadSensorConfig sensor;
};

/// Cache-derived aggregates a frontend needs to assemble a ProxySimResult.
/// Mergeable across shards: counters are exact sums and the sensor peaks
/// merge by max (both commutative and exact), so merging in canonical shard
/// order is bit-deterministic, and merging a single shard into a
/// zero-initialized struct is the identity (peaks are non-negative).
struct StackAggregates {
  double hprime_sum = 0.0;  ///< Σ per-user ĥ' estimates
  std::uint64_t prefetch_inserts = 0;
  std::uint64_t prefetch_first_uses = 0;
  std::uint64_t wasted_evictions = 0;
  std::uint64_t num_users = 0;
  /// Prefetches the policy selected but the governor refused (admission or
  /// depth cut) inside the measurement window.
  std::uint64_t throttled_prefetches = 0;
  /// Proxy-link sensor peaks over the measurement window (0 when the
  /// sensor is off).
  double peak_queue_depth = 0.0;
  double peak_slowdown = 0.0;

  void merge(const StackAggregates& other) {
    hprime_sum += other.hprime_sum;
    prefetch_inserts += other.prefetch_inserts;
    prefetch_first_uses += other.prefetch_first_uses;
    wasted_evictions += other.wasted_evictions;
    num_users += other.num_users;
    throttled_prefetches += other.throttled_prefetches;
    peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
    peak_slowdown = std::max(peak_slowdown, other.peak_slowdown);
  }
};

/// Assembles the user-facing result from measured pieces. Shared by
/// StackRuntime::finalize (one runtime) and the sharded driver (metrics and
/// aggregates merged across shards) so both paths compute every derived
/// quantity with identical arithmetic.
ProxySimResult assemble_stack_result(const SimMetrics& metrics,
                                     const ServerStats& horizon_stats,
                                     const StackAggregates& aggregates,
                                     std::string policy_name);

class StackRuntime {
 public:
  /// `predictor` and `policy` are borrowed; they must outlive the runtime.
  /// The config is taken by value (it is move-only: the retrieval observer
  /// and any installed governor travel with it).
  StackRuntime(Simulator& sim, PredictorPlane& predictor,
               PrefetchPolicy& policy, StackRuntimeConfig config);

  /// Full per-request pipeline: cache access, demand fetch on miss (or
  /// attach to an in-flight transfer), predictor update, policy decision,
  /// prefetch dispatch/deferral. Items must fit in 32 bits (in-flight keys
  /// are packed as (user << 32) | item).
  void handle_request(UserId user, ItemId item);

  /// Ends the warmup: clears metrics and server statistics.
  void begin_measurement();

  /// Snapshot server stats (call at the measurement horizon, before
  /// draining in-flight transfers).
  ServerStats snapshot_server() const { return server_.stats(); }

  /// Assembles the result after the simulator has drained.
  ProxySimResult finalize(const ServerStats& horizon_stats,
                          std::string policy_name) const;

  PsServer& server() { return server_; }
  const SimMetrics& metrics() const { return metrics_; }

  /// Proxy-link sensor snapshot (all zeros / idle defaults when the sensor
  /// is off). The sharded driver reads this at epoch barriers for the
  /// fleet-wide setpoint exchange.
  const LoadSignals& load_signals() const { return sensor_.signals(); }

  /// Cache-derived sums for result assembly and cross-shard merging.
  StackAggregates aggregates() const;

  /// Deep-invariant sweep (util/audit.hpp) across the whole stack slice:
  /// the cache plane's arenas, the predictor plane's ContextArena, the
  /// proxy link's job queue, the in-flight index (every entry has a waiter
  /// unless it is an untouched prefetch, demand counts conserve, deferred
  /// prefetches imply a blocked demand), and the cached ĥ' estimates
  /// against fresh recomputation.
  /// Runs automatically at begin_measurement/finalize in SPECPF_AUDIT
  /// builds (throwing ContractViolation on failure); callable from tests in
  /// any build.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditPeer;  // corruption-injection tests only

  struct Inflight {
    bool is_prefetch = false;
    /// A demand miss attached to this prefetch while it was in flight: the
    /// user is blocked on it, so it holds the link like a demand fetch and
    /// defers further prefetch dispatch until it lands.
    bool demand_promoted = false;
    /// Link-transit span opened at submission (null when telemetry is off
    /// or the span ring is disabled); closed at completion.
    SpanTracer::SpanRef span;
    std::vector<double> waiter_times;
  };

  static std::uint64_t inflight_key(UserId user, ItemId item) {
    // Single choke point for the packing contract: every path that touches
    // in-flight state (demand misses, predictor candidates, deferred
    // flushes) builds its key here, so an oversized item can never alias
    // another user's entry.
    SPECPF_EXPECTS((item >> 32) == 0);
    return (static_cast<std::uint64_t>(user) << 32) | item;
  }

  PolicyContext current_context() const;
  void submit_retrieval(UserId user, ItemId item, bool is_prefetch);
  void flush_pending_prefetches(UserId user);
  /// Registers this runtime's counters/gauges on the telemetry plane,
  /// installs the gauge source, and seals it (constructor only).
  void setup_telemetry();
  /// Refreshes the cached ĥ' contribution of `user` after a cache mutation.
  /// Keeps current_context() O(1) instead of O(num_users) per request —
  /// the difference between a million-user sweep finishing and not.
  void refresh_estimate(UserId user);

  Simulator& sim_;
  PredictorPlane& predictor_;
  PrefetchPolicy& policy_;
  StackRuntimeConfig config_;

  PsServer server_;
  SimMetrics metrics_;
  /// The whole client-cache fleet (entries, policies, §4 estimator state).
  std::unique_ptr<CachePlane> caches_;
  /// Per-user ĥ' estimates and their running sum; updated on mutation.
  std::vector<double> estimate_cache_;
  double estimate_sum_ = 0.0;
  /// In-flight transfers keyed by (user << 32) | item.
  FlatHashMap<Inflight> inflight_;
  std::vector<int> demand_inflight_;
  std::vector<std::vector<ItemId>> pending_prefetches_;
  /// Reused per-request scratch for the predictor plane's predict_into and
  /// the policy's viable-candidate filter: the predict hot path allocates
  /// nothing once the buffers reach steady-state capacity.
  std::vector<core::Candidate> prediction_scratch_;
  std::vector<core::Candidate> viable_scratch_;
  /// Proxy-link load sensor; observes at event instants the runtime
  /// already visits, so enabling it never perturbs the simulation.
  LinkLoadSensor sensor_;
  bool sense_ = false;
  std::uint64_t total_requests_ = 0;
  std::uint64_t wasted_evictions_ = 0;
  std::uint64_t throttled_prefetches_ = 0;
  bool measuring_ = true;

  /// Borrowed telemetry plane (null = off); cached from config_ so every
  /// hook is one pointer test.
  TelemetryPlane* telemetry_ = nullptr;
  /// Incrementally maintained occupancy the telemetry gauges read in O(1)
  /// (kept unconditionally — three integer adds per retrieval — and
  /// cross-checked against a from-scratch rederivation in audit()).
  std::uint64_t cache_residents_ = 0;
  std::uint64_t inflight_demand_total_ = 0;
  std::uint64_t inflight_prefetch_total_ = 0;
  /// Telemetry slot ids (valid only when telemetry_ != nullptr).
  struct TelemetryIds {
    TelemetryRegistry::CounterId requests = 0;
    TelemetryRegistry::CounterId hits = 0;
    TelemetryRegistry::CounterId misses = 0;
    TelemetryRegistry::CounterId inflight_attaches = 0;
    TelemetryRegistry::CounterId demand_fetches = 0;
    TelemetryRegistry::CounterId prefetch_fetches = 0;
    TelemetryRegistry::CounterId prefetch_deferred = 0;
    TelemetryRegistry::CounterId prefetch_throttled = 0;
    TelemetryRegistry::CounterId wasted_evictions = 0;
    TelemetryRegistry::GaugeId link_queue = 0;
    TelemetryRegistry::GaugeId link_util = 0;
    TelemetryRegistry::GaugeId link_depth_ewma = 0;
    TelemetryRegistry::GaugeId link_slowdown = 0;
    TelemetryRegistry::GaugeId gov_state = 0;
    TelemetryRegistry::GaugeId gov_depth_limit = 0;
    TelemetryRegistry::GaugeId inflight_demand = 0;
    TelemetryRegistry::GaugeId inflight_prefetch = 0;
    TelemetryRegistry::GaugeId cache_residents = 0;
    TelemetryRegistry::GaugeId pred_contexts = 0;
    TelemetryRegistry::GaugeId pred_halvings = 0;
  };
  TelemetryIds tele_;
};

}  // namespace specpf
