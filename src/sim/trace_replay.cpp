#include "sim/trace_replay.hpp"

#include "shard/sharded_sim.hpp"
#include "util/contract.hpp"

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
  // Aborting needs a verdict to abort on. (Which plane the detector
  // watches is checked by ShardedReplayConfig::validate.)
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
