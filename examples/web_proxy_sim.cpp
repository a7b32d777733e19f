// Full-stack scenario: a shared web proxy with N browsing clients, per-user
// LRU caches, a learned Markov predictor, and the paper's threshold policy —
// compared head-to-head against no prefetching on the same workload seed.
//
//   ./web_proxy_sim --users 8 --bandwidth 40 --duration 1200
#include <cstdio>
#include <iostream>

#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("web_proxy_sim",
                 "Multi-user proxy with learned prediction + threshold rule");
  args.add_flag("users", "8", "number of browsing clients");
  args.add_flag("bandwidth", "40", "shared link bandwidth (pages/s)");
  args.add_flag("pages", "120", "site size (pages)");
  args.add_flag("cache", "32", "per-client cache capacity (pages)");
  args.add_flag("duration", "1200", "measured seconds");
  args.add_flag("session-rate", "0.7", "session starts per client per second");
  args.add_flag("think", "0.5", "mean think time between clicks (s)");
  args.add_flag("link-skew", "1.4", "Zipf skew across a page's links");
  args.add_flag("seed", "2001", "random seed");
  args.add_flag("predictor", "markov", "markov|ppm|depgraph|frequency|oracle");
  if (!args.parse(argc, argv)) return 1;

  ProxySimConfig cfg;
  cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  cfg.bandwidth = args.get_double("bandwidth");
  cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  cfg.graph.out_degree = 4;
  cfg.graph.exit_probability = 0.18;
  cfg.graph.link_skew = args.get_double("link-skew");
  cfg.session_rate_per_user = args.get_double("session-rate");
  cfg.think_time_mean = args.get_double("think");
  cfg.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  cfg.duration = args.get_double("duration");
  cfg.warmup = cfg.duration / 10.0;
  cfg.seed = args.get_uint("seed");

  const std::string predictor = args.get_string("predictor");
  if (!parse_predictor_kind(predictor, &cfg.predictor_kind)) {
    args.reject_value("predictor", "markov|ppm|depgraph|frequency|oracle",
                      predictor);
  }
  args.require_valid(cfg.check());

  std::printf("web proxy: %zu clients, b=%.0f, %zu pages, predictor=%s\n\n",
              cfg.num_users, cfg.bandwidth, cfg.graph.num_pages,
              predictor.c_str());

  Table table({"policy", "access time", "hit ratio", "rho", "prefetch/req",
               "useful frac", "h' estimate"});
  table.set_precision(4);

  NoPrefetchPolicy none;
  const auto base = run_proxy_sim(cfg, none);
  table.add_row({base.policy, base.mean_access_time, base.hit_ratio,
                 base.server_utilization, 0.0, 0.0, base.hprime_estimate});

  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto pref = run_proxy_sim(cfg, threshold);
  table.add_row({pref.policy, pref.mean_access_time, pref.hit_ratio,
                 pref.server_utilization,
                 static_cast<double>(pref.prefetch_jobs) /
                     static_cast<double>(pref.requests),
                 pref.prefetch_useful_fraction, pref.hprime_estimate});

  table.print(std::cout);
  const double speedup = base.mean_access_time / pref.mean_access_time;
  std::printf("threshold-rule speedup over cache-only: %.2fx\n", speedup);
  return 0;
}
