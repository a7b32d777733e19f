#include "sim/proxy_sim.hpp"

#include <cmath>
#include <functional>

#include "des/simulator.hpp"
#include "predict/predictor_plane.hpp"
#include "sim/stack_runtime.hpp"
#include "util/contract.hpp"
#include "workload/request_stream.hpp"

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
  return {};
}

void ProxySimConfig::validate() const { expect_valid(check()); }

namespace {

std::unique_ptr<PredictorPlane> make_predictor(const ProxySimConfig& config,
                                               const SessionGraph& graph) {
  PredictorPlaneConfig plane_config;
  plane_config.num_users = config.num_users;
  plane_config.graph = &graph;
  return make_predictor_plane(config.predictor_kind, plane_config);
}

}  // namespace

ProxySimResult run_proxy_sim(const ProxySimConfig& config,
                             PrefetchPolicy& policy) {
  config.validate();

  Rng root(config.seed);
  SessionGraph graph(config.graph, root.substream(0).next_u64());
  auto predictor = make_predictor(config, graph);

  // Analytic fallback request-rate estimate until enough data accumulates:
  // mean session length L = 1/exit_p; cycle = gap + (L-1)·think.
  const double session_len = 1.0 / config.graph.exit_probability;
  const double cycle = 1.0 / config.session_rate_per_user +
                       (session_len - 1.0) * config.think_time_mean;

  StackRuntimeConfig runtime_config;
  static_cast<StackConfig&>(runtime_config) = config;
  runtime_config.num_users = config.num_users;
  runtime_config.lambda_prior =
      static_cast<double>(config.num_users) * session_len / cycle;

  Simulator sim;
  StackRuntime runtime(sim, *predictor, policy, std::move(runtime_config));
  const double end_time = config.warmup + config.duration;

  std::vector<std::unique_ptr<SessionStream>> streams;
  streams.reserve(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    streams.push_back(std::make_unique<SessionStream>(
        graph, config.session_rate_per_user, config.think_time_mean,
        root.substream(200 + u)));
  }

  // One recursive closure per run, captured by reference in the inline
  // engine callbacks.
  std::function<void(UserId)> schedule_next_request =  // lint:allow(std::function)
      [&](UserId user) {
    const Request req = streams[user]->next();
    if (req.time > end_time) return;
    sim.schedule_at(req.time, [&, user, req] {
      runtime.handle_request(user, req.item);
      schedule_next_request(user);
    });
  };
  for (std::size_t u = 0; u < config.num_users; ++u) {
    schedule_next_request(static_cast<UserId>(u));
  }

  if (config.warmup > 0.0) {
    sim.schedule_at(config.warmup, [&] { runtime.begin_measurement(); });
  } else {
    runtime.begin_measurement();
  }
  ServerStats horizon_stats;
  sim.schedule_at(end_time, [&] { horizon_stats = runtime.snapshot_server(); });

  sim.run_until(end_time);
  sim.run();  // drain in-flight transfers

  return runtime.finalize(horizon_stats, policy.name());
}

}  // namespace specpf
