// Full-stack multi-user proxy simulation: the downstream system a user of
// this library would actually deploy the threshold rule in.
//
// N clients issue session-structured (Markov graph) requests. Each client
// owns a tagged cache in the cache plane. Misses and prefetches contend on
// one shared processor-sharing server (the paper's network model). A
// predictor plane learns
// the access process online and a PrefetchPolicy decides, per request, what
// to prefetch. System parameters for the policy (λ̂, ĥ', …) are estimated
// online: ĥ' comes from the §4 tagged-entry protocol, λ̂ from the observed
// request count.
//
// Unlike the abstract validation simulator, nothing here is wired to the
// closed forms — hit ratios emerge from real cache contents, eviction
// victims are chosen by the configured replacement policy, and prediction
// errors propagate. This is the testbed for the policy-shootout experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cache/factory.hpp"
#include "policy/policy.hpp"
#include "predict/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/stack_runtime.hpp"
#include "workload/session_graph.hpp"

namespace specpf {

struct ProxySimConfig : StackConfig {
  std::size_t num_users = 8;

  SessionGraphConfig graph;
  double session_rate_per_user = 1.0;  ///< session starts per second
  double think_time_mean = 0.5;        ///< gap between in-session requests

  /// Access model (the fleet-wide enum from predict/factory.hpp).
  using PredictorKind = specpf::PredictorKind;
  PredictorKind predictor_kind = PredictorKind::kOracle;

  double duration = 2000.0;
  double warmup = 200.0;

  /// StackConfig::check(), then the workload's own fields — the graph is
  /// checked here, before any is built.
  std::string check() const;
  /// Throws ContractViolation carrying check()'s message.
  void validate() const;
};

struct ProxySimResult {
  std::string policy;
  double mean_access_time = 0.0;
  double access_time_std_error = 0.0;
  /// Access-time distribution tails (log2-bin interpolated; ~1e-9 means
  /// "instant cache hit" — see SimMetrics::access_time_quantile).
  double access_time_p50 = 0.0;
  double access_time_p95 = 0.0;
  double access_time_p99 = 0.0;
  double hit_ratio = 0.0;
  double server_utilization = 0.0;
  double retrieval_time_per_request = 0.0;
  double retrievals_per_request = 0.0;
  double hprime_estimate = 0.0;        ///< final online ĥ' (per model)
  double prefetch_useful_fraction = 0.0;  ///< prefetches touched before evict
  std::uint64_t requests = 0;
  std::uint64_t demand_jobs = 0;
  std::uint64_t prefetch_jobs = 0;
  std::uint64_t wasted_prefetch_evictions = 0;
  std::uint64_t inflight_hits = 0;    ///< hits that waited on a live prefetch
  double mean_inflight_wait = 0.0;
  double mean_demand_sojourn = 0.0;
  /// Prefetches the policy selected but the control plane refused (0 when
  /// ungoverned).
  std::uint64_t throttled_prefetches = 0;
  /// Proxy-link load-sensor peaks over the measurement window — smoothed
  /// jobs-in-system and sojourn/unloaded-service-time (0 when the sensor
  /// is off; see control/load_sensor.hpp).
  double peak_queue_depth = 0.0;
  double peak_slowdown = 0.0;
};

/// Runs one replication with the given policy (policy state persists across
/// the run; pass a fresh instance per run).
ProxySimResult run_proxy_sim(const ProxySimConfig& config,
                             PrefetchPolicy& policy);

}  // namespace specpf
