// End-to-end policy comparison on the full-stack proxy simulator: the
// paper's load-aware threshold rule against the heuristics §1 describes
// ("prefetch if probability exceeds a fixed threshold", top-k) and the
// no-prefetch baseline — at three load levels.
//
// Now runs at 10x the original population/duration by default (the sharded
// runtime and batch-submitting thread pool made long sweeps cheap) with
// independent replications executed in parallel, and reports Student-t 95%
// confidence intervals per cell so "wins or ties" is a statistical
// statement instead of a point estimate.
//
// Expected shape: the threshold rule wins or ties everywhere; fixed
// low thresholds win at light load but collapse at high load (the paper's
// core warning about network-load feedback); top-k sits in between.
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "stats/confidence.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace specpf;

std::unique_ptr<PrefetchPolicy> make_policy(std::size_t index) {
  switch (index) {
    case 0: return std::make_unique<NoPrefetchPolicy>();
    case 1:
      return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelA);
    case 2:
      return std::make_unique<ThresholdPolicy>(core::InteractionModel::kModelB);
    case 3: return std::make_unique<FixedThresholdPolicy>(0.05);
    case 4: return std::make_unique<FixedThresholdPolicy>(0.5);
    case 5: return std::make_unique<TopKPolicy>(2);
    case 6: return std::make_unique<AdaptiveCostPolicy>(1.5);
    default:
      return std::make_unique<QosThresholdPolicy>(
          core::InteractionModel::kModelA, 0.8);
  }
}
constexpr std::size_t kNumPolicies = 8;

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("table_policy_shootout",
                 "Prefetch policies on the full-stack proxy simulation");
  args.add_flag("users", flag::kPositiveUint, "60",
                "client population (seed paper setup was 6)");
  args.add_flag("duration", flag::kPositiveNumber, "15000",
                "measured seconds per run");
  args.add_flag("replications", flag::kPositiveUint, "8",
                "independent replications per cell (t-based 95% CIs)");
  args.add_flag("threads", flag::kUint, "0",
                "worker threads for replications (0 = hardware)");
  args.add_flag("predictor",
                flag::name("markov|ppm|depgraph|frequency|oracle",
                           [](const std::string& name) {
                             PredictorKind kind{};
                             return parse_predictor_kind(name, &kind);
                           }),
                "oracle", "access predictor");
  args.add_flag("csv", flag::kBool, "false", "emit CSV instead of markdown");
  args.parse(argc, argv);

  ProxySimConfig base;
  base.num_users = static_cast<std::size_t>(args.get_uint("users"));
  base.graph.num_pages = 60;
  base.graph.out_degree = 3;
  base.graph.exit_probability = 0.2;
  base.graph.link_skew = 1.5;
  base.session_rate_per_user = 0.8;
  base.think_time_mean = 0.4;
  base.cache_capacity = 24;
  base.duration = args.get_double("duration");
  base.warmup = base.duration / 10.0;
  base.seed = 42;

  const std::string predictor = args.get_string("predictor");
  parse_predictor_kind(predictor, &base.predictor_kind);
  args.require_valid(base.check());

  // The paper's single shared link scales with the population: keep the
  // per-user bandwidth of the original 6-user setup at each load level.
  const double users_scale = static_cast<double>(base.num_users) / 6.0;
  const auto replications =
      static_cast<std::size_t>(args.get_uint("replications"));
  if (replications < 2) {
    // t-based CIs need at least two independent runs.
    args.reject_value("replications", "integer >= 2",
                      std::to_string(replications));
  }
  ThreadPool pool(static_cast<std::size_t>(args.get_uint("threads")));

  for (const auto& [label, bandwidth_per_6] :
       std::vector<std::pair<std::string, double>>{
           {"light load", 60.0},
           {"moderate load", 25.0},
           {"heavy load", 14.0}}) {
    ProxySimConfig cfg = base;
    cfg.bandwidth = bandwidth_per_6 * users_scale;

    // All (policy, replication) cells run concurrently: one batch
    // submission, results keyed by index. Replication r of every policy
    // shares seed substream r, giving paired comparisons across policies.
    std::vector<std::function<ProxySimResult()>> tasks;
    tasks.reserve(kNumPolicies * replications);
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      for (std::size_t r = 0; r < replications; ++r) {
        ProxySimConfig run_cfg = cfg;
        run_cfg.seed = Rng(cfg.seed).substream(r).next_u64();
        tasks.emplace_back([run_cfg, p] {
          auto policy = make_policy(p);
          return run_proxy_sim(run_cfg, *policy);
        });
      }
    }
    auto futures = pool.submit_batch(std::move(tasks));

    std::vector<std::vector<ProxySimResult>> cells(kNumPolicies);
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      for (std::size_t r = 0; r < replications; ++r) {
        cells[p].push_back(futures[p * replications + r].get());
      }
    }

    Table table({"policy", "t_mean", "ci95", "vs none", "p50", "p95", "p99",
                 "hit ratio", "rho", "prefetch/req", "useful frac",
                 "R per req"});
    table.set_title("Policy shootout — " + label + " (b=" +
                    std::to_string(cfg.bandwidth) + "), predictor=" +
                    predictor + ", " + std::to_string(replications) +
                    " replications x " + std::to_string(cfg.duration) + "s");
    table.set_precision(4);

    double baseline_t = 0.0;
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
      std::vector<double> t_means, p50s, p95s, p99s, hit_ratios, rhos, ppr,
          useful, rpr;
      for (const auto& r : cells[p]) {
        t_means.push_back(r.mean_access_time);
        p50s.push_back(r.access_time_p50);
        p95s.push_back(r.access_time_p95);
        p99s.push_back(r.access_time_p99);
        hit_ratios.push_back(r.hit_ratio);
        rhos.push_back(r.server_utilization);
        ppr.push_back(static_cast<double>(r.prefetch_jobs) /
                      static_cast<double>(r.requests));
        useful.push_back(r.prefetch_useful_fraction);
        rpr.push_back(r.retrieval_time_per_request);
      }
      const ConfidenceInterval ci = t_interval(t_means);
      if (p == 0) baseline_t = ci.mean;
      const double ratio = baseline_t > 0.0 ? ci.mean / baseline_t : 1.0;
      table.add_row({cells[p].front().policy, ci.mean, ci.half_width, ratio,
                     t_interval(p50s).mean, t_interval(p95s).mean,
                     t_interval(p99s).mean,
                     t_interval(hit_ratios).mean, t_interval(rhos).mean,
                     t_interval(ppr).mean, t_interval(useful).mean,
                     t_interval(rpr).mean});
    }
    if (args.get_bool("csv")) {
      std::cout << table.to_csv() << '\n';
    } else {
      table.print(std::cout);
    }
  }
  std::cout << "Expected: threshold-A/B <= 1.0 of baseline at every load "
               "(CIs separate or overlap the tie); fixed-0.05 wins light "
               "load but blows up at heavy load.\n";
  return 0;
}
