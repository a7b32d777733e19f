// Quickstart: the paper's result in ten lines — compute the prefetch
// threshold for your system, decide what to prefetch, and predict the
// resulting access-time improvement.
//
//   ./quickstart --bandwidth 50 --lambda 30 --size 1 --hprime 0.3
#include <cstdio>

#include "core/excess_cost.hpp"
#include "core/planner.hpp"
#include "util/argparse.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("quickstart", "Threshold rule in a nutshell");
  args.add_flag("bandwidth", flag::kPositiveNumber, "50",
                "shared link bandwidth b (units/s)");
  args.add_flag("lambda", flag::kNumber, "30",
                "aggregate request rate (req/s)");
  args.add_flag("size", flag::kPositiveNumber, "1",
                "mean item size s̄ (units)");
  args.add_flag("hprime", flag::kNumber, "0.3",
                "cache hit ratio without prefetching");
  args.parse(argc, argv);

  // 1. Describe the system (paper §2).
  core::SystemParams params;
  params.bandwidth = args.get_double("bandwidth");
  params.request_rate = args.get_double("lambda");
  params.mean_item_size = args.get_double("size");
  params.hit_ratio = args.get_double("hprime");
  args.require_valid(params.check());
  args.require_valid(params.check_stable());

  const auto baseline = core::analyze_no_prefetch(params);
  std::printf("no-prefetch baseline: utilisation rho'=%.3f, "
              "mean access time t'=%.4fs\n",
              baseline.utilization, baseline.access_time);

  // 2. The headline result: prefetch EXCLUSIVELY ALL items whose access
  //    probability exceeds p_th = rho' (Model A, eq. 13).
  core::PrefetchPlanner planner(params, core::InteractionModel::kModelA);
  std::printf("prefetch threshold p_th = %.3f\n\n", planner.threshold());

  // 3. Feed it candidates (normally from an access predictor). Candidate
  //    probabilities describe the *next* access, so they sum to at most 1.
  const std::vector<core::Candidate> candidates{
      {101, 0.55}, {102, 0.30}, {103, 0.10}, {104, 0.04}};
  const auto plan = planner.plan(candidates);
  for (const auto& c : candidates) {
    std::printf("  item %llu  p=%.2f  -> %s\n",
                static_cast<unsigned long long>(c.item), c.probability,
                c.probability > plan.threshold ? "PREFETCH" : "skip");
  }

  // 4. Predicted effect of that plan (eqs. 7-11 generalised).
  std::printf("\npredicted: hit ratio %.3f -> %.3f, access time %.4fs -> "
              "%.4fs (gain %.4fs)\n",
              params.hit_ratio, plan.predicted_hit_ratio,
              baseline.access_time, plan.predicted_access_time,
              plan.predicted_gain);
  std::printf("excess retrieval cost C = %.4fs per request (eq. 27)\n",
              plan.predicted_excess_cost);
  return 0;
}
