#include "sim/proxy_sim.hpp"

#include <cmath>

#include "sim/trace_replay.hpp"
#include "util/contract.hpp"

namespace specpf {

std::string ProxySimConfig::check() const {
  if (std::string error = StackConfig::check(); !error.empty()) return error;
  if (num_users < 1) {
    return config_error("num_users", "must be >= 1", num_users);
  }
  // SessionGraph's and its entry ZipfDist's preconditions, checked before
  // run_proxy_sim builds the graph.
  if (graph.num_pages < 2) {
    return config_error("graph.num_pages", "must be >= 2", graph.num_pages);
  }
  if (graph.out_degree < 1) {
    return config_error("graph.out_degree", "must be >= 1", graph.out_degree);
  }
  if (!(graph.exit_probability > 0.0 && graph.exit_probability <= 1.0)) {
    return config_error("graph.exit_probability", "must be in (0, 1]",
                        graph.exit_probability);
  }
  if (!std::isfinite(graph.link_skew)) {
    return config_error("graph.link_skew", "must be finite", graph.link_skew);
  }
  if (!positive_finite(graph.entry_skew)) {
    return config_error("graph.entry_skew", "must be positive and finite",
                        graph.entry_skew);
  }
  if (!positive_finite(session_rate_per_user)) {
    return config_error("session_rate_per_user", "must be positive and finite",
                        session_rate_per_user);
  }
  if (!positive_finite(think_time_mean)) {
    return config_error("think_time_mean", "must be positive and finite",
                        think_time_mean);
  }
  if (!positive_finite(duration)) {
    return config_error("duration", "must be positive and finite", duration);
  }
  if (!(warmup >= 0.0 && std::isfinite(warmup))) {
    return config_error("warmup", "must be non-negative and finite", warmup);
  }
  // The warmup becomes a share of the records, which must leave some.
  if (!(warmup / (warmup + duration) < 1.0)) {
    return config_error("warmup", "must leave a measured share of the run",
                        warmup);
  }
  return {};
}

void ProxySimConfig::validate() const { expect_valid(check()); }

SessionTraceSource proxy_session_source(const ProxySimConfig& config) {
  config.validate();
  return SessionTraceSource(config.graph, config.num_users,
                            config.session_rate_per_user,
                            config.think_time_mean, config.seed,
                            config.warmup + config.duration);
}

ProxySimResult run_proxy_sim(const ProxySimConfig& config,
                             PrefetchPolicy& policy) {
  SessionTraceSource source = proxy_session_source(config);
  TraceReplayConfig replay;
  static_cast<StackConfig&>(replay) = config;
  replay.predictor_kind = config.predictor_kind;
  replay.warmup_fraction = config.warmup / (config.warmup + config.duration);
  return run_trace_replay(source, replay, policy);
}

}  // namespace specpf
