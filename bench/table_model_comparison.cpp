// Reproduces §6 ("The two models compared"): Model A vs Model B vs the
// interpolating Model AB, as the cache size n̄(C) grows relative to the
// prefetch rate n̄(F).
//
// Expected (paper):
//  * threshold gap p_th(B) − p_th(A) = h'/n̄(C) ≤ 1/n̄(C);
//  * h, ρ, r̄, t̄, G, C of the two models converge when n̄(C) ≫ n̄(F);
//  * Model AB (victim value q = h'/(2 n̄(C)) here) lies between A and B.
#include <iostream>

#include "core/excess_cost.hpp"
#include "core/interaction.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("table_model_comparison",
                 "Section 6: Model A vs B vs AB across cache sizes");
  args.add_flag("hprime", flag::kNumber, "0.3", "no-prefetch hit ratio h'");
  args.add_flag("p", flag::kNumber, "0.7",
                "access probability of prefetched items");
  args.add_flag("nf", flag::kNumber, "1.0", "prefetch rate n̄(F)");
  args.add_flag("csv", flag::kBool, "false", "emit CSV instead of markdown");
  args.parse(argc, argv);

  const double hprime = args.get_double("hprime");
  const core::OperatingPoint op{args.get_double("p"), args.get_double("nf")};
  const auto params_at = [hprime](double nc) {
    core::SystemParams params;
    params.bandwidth = 50.0;
    params.request_rate = 30.0;
    params.mean_item_size = 1.0;
    params.hit_ratio = hprime;
    params.cache_items = nc;
    return params;
  };
  constexpr double kCacheSizes[] = {2.0,   5.0,   10.0,   20.0,
                                    50.0,  100.0, 1000.0, 10000.0};
  // The rows vary n̄(C) only, so h', the point and its eq. (6) bound are
  // checked once, before any row. The load is highest under Model B at the
  // smallest n̄(C), where its victim value h'/n̄(C) is largest.
  const core::SystemParams strictest = params_at(kCacheSizes[0]);
  args.require_valid(strictest.check());
  const ArgParser::FieldFlags op_flags = {{"access_probability", "p"},
                                          {"prefetch_rate", "nf"},
                                          {"utilization", "nf"}};
  args.require_valid(op.check(), op_flags);
  args.require_valid(op.check_candidates(strictest), op_flags);
  args.require_valid(
      core::analyze(strictest, op, core::InteractionModel::kModelB)
          .check_stable(),
      op_flags);

  Table table({"nC", "pth_A", "pth_B", "gap", "h_A", "h_B", "G_A", "G_B",
               "G_AB", "C_A", "C_B", "|G_A-G_B|"});
  table.set_title("§6 — prefetch-cache interaction models vs n̄(C)   (s=1, "
                  "lambda=30, b=50, h'=" + std::to_string(hprime).substr(0, 4) +
                  ", p=" + std::to_string(op.access_probability).substr(0, 4) +
                  ", nF=" + std::to_string(op.prefetch_rate).substr(0, 4) + ")");
  table.set_precision(5);

  for (double nc : kCacheSizes) {
    const core::SystemParams params = params_at(nc);

    const auto a = core::analyze(params, op, core::InteractionModel::kModelA);
    const auto b = core::analyze(params, op, core::InteractionModel::kModelB);
    const auto ab = core::analyze_with_victim_value(
        params, op, core::victim_value(params, core::InteractionModel::kModelB) / 2.0);

    const double ca = core::excess_cost(a.utilization, a.baseline.utilization,
                                        params.request_rate);
    const double cb = core::excess_cost(b.utilization, b.baseline.utilization,
                                        params.request_rate);
    table.add_row({nc, a.threshold, b.threshold, b.threshold - a.threshold,
                   a.hit_ratio, b.hit_ratio, a.gain, b.gain, ab.gain, ca, cb,
                   std::abs(a.gain - b.gain)});
  }
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
    std::cout << "Check: gap = h'/nC; G_AB between G_A and G_B; all columns "
                 "converge as nC grows.\n";
  }
  return 0;
}
