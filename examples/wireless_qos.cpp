// Wireless / multimedia QoS provisioning — the application the paper's
// conclusion points to. Uses the closed-form inversions (core/inverse) to
// answer the operator's questions for a shared wireless downlink:
//
//   1. What bandwidth does a latency SLO require, with and without
//      prefetching?
//   2. Under a fixed link, how much prefetching does the SLO tolerate?
//   3. How accurate must the predictor be before prefetching helps at all,
//      and before it delivers a target improvement?
//
// Then verifies the provisioning in simulation with the QoS-budgeted
// threshold policy.
#include <cstdio>
#include <iostream>

#include "core/inverse.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("wireless_qos", "QoS provisioning with the closed forms");
  args.add_flag("slo", "0.03", "access-time SLO (seconds)");
  args.add_flag("lambda", "30", "aggregate request rate (req/s)");
  args.add_flag("hprime", "0.3", "cache hit ratio without prefetching");
  args.add_flag("duration", "900", "simulated seconds for the check");
  args.add_flag("users", "6", "clients in the simulated check");
  args.add_flag("cache", "32", "per-client cache capacity (pages)");
  args.add_flag("pages", "100", "site size in the simulated check");
  args.add_flag("utilization-cap", "0.85",
                "QoS policy's utilisation cap (capacity headroom)");
  args.add_flag("seed", "4", "random seed for the simulated check");
  if (!args.parse(argc, argv)) return 1;

  const double slo = args.get_double("slo");

  core::SystemParams params;
  params.request_rate = args.get_double("lambda");
  params.mean_item_size = 1.0;
  params.hit_ratio = args.get_double("hprime");
  params.cache_items = 100.0;

  // --- 1. bandwidth provisioning ---
  const double b_plain = core::min_bandwidth_for_access_time(params, slo);
  const double b_prefetch = core::min_bandwidth_for_access_time(
      params, {0.7, 0.5}, core::InteractionModel::kModelA, slo);
  std::printf("SLO: mean access time <= %.0f ms at lambda=%.0f, h'=%.2f\n\n",
              slo * 1e3, params.request_rate, params.hit_ratio);
  std::printf("bandwidth to meet SLO, cache only:            %6.1f units/s\n",
              b_plain);
  std::printf("bandwidth with prefetching (p=0.7, nF=0.5):   %6.1f units/s\n",
              b_prefetch);
  std::printf("  -> good speculative prefetching substitutes %.0f%% of the "
              "link capacity\n\n",
              100.0 * (1.0 - b_prefetch / b_plain));

  // --- 2. prefetch budget on a fixed link ---
  params.bandwidth = b_plain * 1.1;  // provision 10% above the plain need
  Table budget({"candidate p", "p_th", "SLO prefetch budget n̄(F)",
                "max(np) cap f'/p"});
  budget.set_title("Prefetch budget under the SLO  (b = " +
                   std::to_string(params.bandwidth).substr(0, 6) + ")");
  budget.set_precision(3);
  const double pth = core::threshold(params, core::InteractionModel::kModelA);
  for (double p : {0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double nf = core::max_prefetch_rate_for_access_time(
        params, p, core::InteractionModel::kModelA, slo);
    budget.add_row({p, pth, nf, core::max_candidates(params, p)});
  }
  budget.print(std::cout);

  // --- 3. required predictor quality ---
  Table quality({"target gain (ms)", "required p (Model A)",
                 "required p (Model B)"});
  quality.set_title("Predictor quality needed at n̄(F)=0.5");
  quality.set_precision(3);
  for (double gain_ms : {0.0, 2.0, 5.0, 10.0}) {
    const double pa = core::min_probability_for_gain(
        params, 0.5, core::InteractionModel::kModelA, gain_ms / 1e3);
    const double pb = core::min_probability_for_gain(
        params, 0.5, core::InteractionModel::kModelB, gain_ms / 1e3);
    quality.add_row({gain_ms,
                     pa <= 1.0 ? Cell{pa} : Cell{std::string("unattainable")},
                     pb <= 1.0 ? Cell{pb} : Cell{std::string("unattainable")}});
  }
  quality.print(std::cout);

  // --- 4. verify in simulation with the QoS-budgeted policy ---
  ProxySimConfig cfg;
  cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  cfg.bandwidth = params.bandwidth;
  cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.2;
  cfg.graph.link_skew = 1.6;
  cfg.session_rate_per_user = 0.9;
  cfg.think_time_mean = 0.35;
  cfg.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  cfg.duration = args.get_double("duration");
  cfg.warmup = cfg.duration / 10.0;
  cfg.seed = args.get_uint("seed");

  // The policy enforces a utilisation cap (capacity headroom against the
  // tail effects the mean-value model ignores); 0.85 is a common choice.
  NoPrefetchPolicy none;
  QosThresholdPolicy qos(core::InteractionModel::kModelA,
                         args.get_double("utilization-cap"));
  const auto base = run_proxy_sim(cfg, none);
  const auto with_qos = run_proxy_sim(cfg, qos);
  std::printf("simulated check on a session workload (b=%.1f):\n",
              cfg.bandwidth);
  std::printf("  cache only:    t = %.1f ms  (rho %.2f)\n",
              base.mean_access_time * 1e3, base.server_utilization);
  std::printf("  %s: t = %.1f ms  (rho %.2f; SLO %.1f ms: %s)\n",
              with_qos.policy.c_str(), with_qos.mean_access_time * 1e3,
              with_qos.server_utilization, slo * 1e3,
              with_qos.mean_access_time <= slo ? "met" : "MISSED");
  return 0;
}
