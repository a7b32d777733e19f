#include "sim/trace_replay.hpp"

#include "shard/sharded_sim.hpp"
#include "util/contract.hpp"

namespace specpf {

std::string TraceReplayConfig::check() const {
  if (std::string error = StackConfig::check(); !error.empty()) return error;
  if (!(warmup_fraction >= 0.0 && warmup_fraction < 1.0)) {
    return config_error("warmup_fraction", "must be in [0, 1)",
                        warmup_fraction);
  }
  if (!governor.empty() && !is_governor_name(governor)) {
    return config_error("governor",
                        "must be empty or noop|token-<rate>|aimd-<setpoint>|"
                        "conf-<precision>",
                        "'" + governor + "'");
  }
  if (stream_window < 1) {
    return config_error("stream_window", "must be >= 1", stream_window);
  }
  const char* retired = use_tree_inflight       ? "use_tree_inflight"
                        : use_legacy_caches     ? "use_legacy_caches"
                        : use_legacy_predictors ? "use_legacy_predictors"
                                                : nullptr;
  if (retired != nullptr) {
    return config_error(retired, "retired backend, must be false", "true");
  }
  // Aborting needs a verdict to abort on. (Which plane the detector
  // watches is checked by ShardedReplayConfig::check.)
  if (abort_on_divergence && divergence == nullptr) {
    return config_error("abort_on_divergence", "needs a divergence detector",
                        "true");
  }
  return {};
}

void TraceReplayConfig::validate() const { expect_valid(check()); }

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
  ShardedReplayConfig sharded;
  sharded.stack = config;
  ShardedSim sim(source, sharded, policy);
  return sim.run().merged;
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
