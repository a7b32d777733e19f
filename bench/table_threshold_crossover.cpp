// Empirical threshold location: sweep the access probability p at fixed
// n̄(F) and report the simulated gain next to the closed-form gain. The
// paper's headline claim predicts the sign flip at p_th = ρ' (Model A):
// 0.6 for h'=0 and 0.42 for h'=0.3 at the reference parameters.
#include <iostream>

#include "sim/validation.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("table_threshold_crossover",
                 "Simulated gain sign-flip at the analytic threshold");
  args.add_flag("replications", "8", "replications per point");
  args.add_flag("duration", "1200", "measured seconds per replication");
  args.add_flag("nf", "0.5", "prefetch rate n̄(F)");
  args.add_flag("csv", "false", "emit CSV instead of markdown");
  if (!args.parse(argc, argv)) return 1;

  ValidationOptions opt;
  opt.replications = static_cast<std::size_t>(args.get_uint("replications"));
  opt.duration = args.get_double("duration");
  opt.warmup = opt.duration / 10.0;
  const double nf = args.get_double("nf");

  for (double hprime : {0.0, 0.3}) {
    core::SystemParams params;
    params.bandwidth = 50.0;
    params.request_rate = 30.0;
    params.mean_item_size = 1.0;
    params.hit_ratio = hprime;
    params.cache_items = 100.0;
    const double pth =
        core::threshold(params, core::InteractionModel::kModelA);

    Table table({"p", "G(analytic)", "G(sim)", "sim 95% CI half-width",
                 "sign match"});
    table.set_title("Threshold crossover   (h'=" +
                    std::to_string(hprime).substr(0, 3) +
                    ", nF=" + std::to_string(nf).substr(0, 3) +
                    ", analytic p_th=" + std::to_string(pth).substr(0, 4) + ")");
    table.set_precision(5);

    for (double p = 0.1; p <= 0.95; p += 0.1) {
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
