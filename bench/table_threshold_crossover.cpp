// Empirical threshold location: sweep the access probability p at fixed
// n̄(F) and report the simulated gain next to the closed-form gain. The
// paper's headline claim predicts the sign flip at p_th = ρ' (Model A):
// 0.6 for h'=0 and 0.42 for h'=0.3 at the reference parameters.
#include <iostream>

#include "core/interaction.hpp"
#include "sim/validation.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("table_threshold_crossover",
                 "Simulated gain sign-flip at the analytic threshold");
  args.add_flag("replications", flag::kPositiveUint, "8",
                "replications per point");
  args.add_flag("duration", flag::kPositiveNumber, "1200",
                "measured seconds per replication");
  args.add_flag("nf", flag::kNumber, "0.5", "prefetch rate n̄(F)");
  args.add_flag("csv", flag::kBool, "false", "emit CSV instead of markdown");
  args.parse(argc, argv);

  ValidationOptions opt;
  opt.replications = static_cast<std::size_t>(args.get_uint("replications"));
  opt.duration = args.get_double("duration");
  opt.warmup = opt.duration / 10.0;
  const double nf = args.get_double("nf");
  const auto params_at = [](double hprime) {
    core::SystemParams params;
    params.bandwidth = 50.0;
    params.request_rate = 30.0;
    params.mean_item_size = 1.0;
    params.hit_ratio = hprime;
    params.cache_items = 100.0;
    return params;
  };
  constexpr double kFirstP = 0.1;
  // The sweep's load is highest at its first point (p = 0.1) with h' = 0,
  // so that point is checked before any replication runs.
  const core::OperatingPoint first{kFirstP, nf};
  const ArgParser::FieldFlags op_flags = {{"prefetch_rate", "nf"},
                                          {"utilization", "nf"}};
  args.require_valid(first.check(), op_flags);
  args.require_valid(
      core::analyze(params_at(0.0), first, core::InteractionModel::kModelA)
          .check_stable(),
      op_flags);

  for (double hprime : {0.0, 0.3}) {
    const core::SystemParams params = params_at(hprime);
    const double pth =
        core::threshold(params, core::InteractionModel::kModelA);

    Table table({"p", "G(analytic)", "G(sim)", "sim 95% CI half-width",
                 "sign match"});
    table.set_title("Threshold crossover   (h'=" +
                    std::to_string(hprime).substr(0, 3) +
                    ", nF=" + std::to_string(nf).substr(0, 3) +
                    ", analytic p_th=" + std::to_string(pth).substr(0, 4) + ")");
    table.set_precision(5);

    for (double p = kFirstP; p <= 0.95; p += 0.1) {
      if (nf * p > params.fault_ratio()) break;  // eq. (6) consistency
      const auto row = validate_point(params, {p, nf},
                                      core::InteractionModel::kModelA, opt);
      // Gain CI half-width: sum of the two access-time half-widths.
      const double hw = row.sim_prefetch.access_time.half_width +
                        row.sim_baseline.access_time.half_width;
      const bool match =
          (row.analytic_gain > 0) == (row.sim_gain > 0) ||
          std::abs(row.sim_gain) < hw;  // too close to call at p ≈ p_th
      table.add_row({p, row.analytic_gain, row.sim_gain, hw,
                     std::string(match ? "yes" : "NO")});
    }
    if (args.get_bool("csv")) {
      std::cout << table.to_csv() << '\n';
    } else {
      table.print(std::cout);
    }
  }
  std::cout << "Expected: G(sim) sign flips from negative to positive as p "
               "crosses p_th.\n";
  return 0;
}
