// Operations-facing planner: given a link and workload, print the prefetch
// threshold across load levels, the safe prefetch-rate envelope, and the
// bandwidth headroom needed before speculative prefetching pays off.
//
//   ./capacity_planner --bandwidth 100 --size 2 --hprime 0.4
#include <cstdio>
#include <iostream>

#include "core/excess_cost.hpp"
#include "core/interaction.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("capacity_planner",
                 "Prefetch feasibility envelope for a shared link");
  args.add_flag("bandwidth", flag::kPositiveNumber, "100",
                "link bandwidth b (units/s)");
  args.add_flag("size", flag::kPositiveNumber, "2",
                "mean item size s̄ (units)");
  args.add_flag("hprime", flag::kNumber, "0.4",
                "cache hit ratio without prefetching");
  args.add_flag("cache-items", flag::kPositiveNumber, "200",
                "average cache occupancy n̄(C)");
  args.add_flag("p", flag::kNumber, "0.6",
                "access probability of prefetch candidates");
  args.parse(argc, argv);

  core::SystemParams params;
  params.bandwidth = args.get_double("bandwidth");
  params.mean_item_size = args.get_double("size");
  params.hit_ratio = args.get_double("hprime");
  params.cache_items = args.get_double("cache-items");
  args.require_valid(params.check());
  // At h' = 1 no demand reaches the link: the load sweep below spans
  // fractions of a saturation rate that does not exist.
  if (!(params.hit_ratio < 1.0)) {
    args.reject_value("hprime", "number in [0, 1) (no load range to plan at "
                      "h' = 1)", args.get_string("hprime"));
  }
  const double p = args.get_double("p");
  if (!(p > 0.0 && p <= 1.0)) {
    args.reject_value("p", "number in (0, 1]", args.get_string("p"));
  }

  const double lambda_max =
      params.bandwidth / (params.fault_ratio() * params.mean_item_size);

  std::printf("link: b=%.0f units/s, s̄=%.1f, h'=%.2f  (demand saturates at "
              "lambda=%.1f req/s)\n\n",
              params.bandwidth, params.mean_item_size, params.hit_ratio,
              lambda_max);

  Table table({"lambda", "rho'", "p_th (A)", "p_th (B)", "t' (ms)",
               "max n̄(F) @p", "C @ n̄(F)=0.5 (ms)", "verdict @p"});
  table.set_precision(3);

  for (double frac : {0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95}) {
    const double lambda = frac * lambda_max;
    params.request_rate = lambda;
    const auto base = core::analyze_no_prefetch(params);
    const double pth_a =
        core::threshold(params, core::InteractionModel::kModelA);
    const double pth_b =
        core::threshold(params, core::InteractionModel::kModelB);

    double max_nf = 0.0;
    double cost = 0.0;
    std::string verdict;
    if (p > pth_a) {
      max_nf = std::min(core::max_candidates(params, p),
                        core::prefetch_rate_capacity_limit(
                            params, p, core::InteractionModel::kModelA));
      const auto at_half = core::analyze(params, {p, std::min(0.5, max_nf)},
                                         core::InteractionModel::kModelA);
      cost = at_half.conditions.total_within_capacity
                 ? core::excess_cost(at_half.utilization,
                                     base.utilization, lambda) * 1e3
                 : 0.0;
      verdict = "prefetch";
    } else {
      verdict = "DON'T (p<=p_th)";
    }
    table.add_row({lambda, base.utilization, std::min(1.0, pth_a),
                   std::min(1.0, pth_b), base.access_time * 1e3, max_nf, cost,
                   verdict});
  }
  table.print(std::cout);
  std::printf("Rule (paper, §3): prefetch exclusively all items with access "
              "probability above p_th;\nabove that bar, more prefetching "
              "only helps — below it, any prefetching hurts.\n");
  return 0;
}
