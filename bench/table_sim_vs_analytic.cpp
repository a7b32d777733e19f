// DES validation of the paper's closed forms: for a grid of operating
// points, run the abstract simulator (which realises exactly the paper's
// stochastic model) with replications and compare measured h, ρ, t̄, G, C
// against eqs. (7)–(11)/(15)–(19)/(27).
//
// Also reports the empirical threshold property: the measured gain changes
// sign at p_th.
#include <iostream>

#include "sim/validation.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("table_sim_vs_analytic",
                 "Discrete-event simulation vs closed forms");
  args.add_flag("replications", "8", "independent replications per point");
  args.add_flag("duration", "1200", "measured seconds per replication");
  args.add_flag("csv", "false", "emit CSV instead of markdown");
  if (!args.parse(argc, argv)) return 1;

  ValidationOptions opt;
  opt.replications = static_cast<std::size_t>(args.get_uint("replications"));
  opt.duration = args.get_double("duration");
  opt.warmup = opt.duration / 10.0;

  struct Case {
    double hprime, p, nf;
    core::InteractionModel model;
  };
  const std::vector<Case> grid{
      {0.0, 0.3, 0.3, core::InteractionModel::kModelA},
      {0.0, 0.5, 0.5, core::InteractionModel::kModelA},
      {0.0, 0.7, 0.5, core::InteractionModel::kModelA},
      {0.0, 0.9, 1.0, core::InteractionModel::kModelA},
      {0.3, 0.3, 0.5, core::InteractionModel::kModelA},
      {0.3, 0.5, 0.8, core::InteractionModel::kModelA},
      {0.3, 0.8, 0.8, core::InteractionModel::kModelA},
      {0.3, 0.5, 0.5, core::InteractionModel::kModelB},
      {0.5, 0.7, 0.6, core::InteractionModel::kModelB},
  };

  Table table({"model", "h'", "p", "nF", "h(an)", "h(sim)", "rho(an)",
               "rho(sim)", "t(an)", "t(sim)", "G(an)", "G(sim)", "C(an)",
               "C(sim)", "err_t%"});
  table.set_title(
      "DES vs closed forms   (s=1, lambda=30, b=50; " +
      std::to_string(opt.replications) + " replications x " +
      std::to_string(static_cast<int>(opt.duration)) + "s)");
  table.set_precision(4);

  for (const Case& c : grid) {
    core::SystemParams params;
    params.bandwidth = 50.0;
    params.request_rate = 30.0;
    params.mean_item_size = 1.0;
    params.hit_ratio = c.hprime;
    params.cache_items = 100.0;
    const auto row = validate_point(params, {c.p, c.nf}, c.model, opt);
    table.add_row({std::string(c.model == core::InteractionModel::kModelA
                                   ? "A"
                                   : "B"),
                   c.hprime, c.p, c.nf, row.analytic_hit_ratio,
                   row.sim_prefetch.hit_ratio.mean, row.analytic_utilization,
                   row.sim_prefetch.utilization.mean, row.analytic_access_time,
                   row.sim_prefetch.access_time.mean, row.analytic_gain,
                   row.sim_gain, row.analytic_excess_cost, row.sim_excess_cost,
                   100.0 * row.err_access_time});
  }

  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
    std::cout << "Expected: relative access-time error err_t% within a few "
                 "percent;\nsimulated gain positive exactly for p > p_th "
                 "(0.6 at h'=0, 0.42 at h'=0.3).\n";
  }
  return 0;
}
