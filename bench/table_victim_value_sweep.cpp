// Ablation for §6's "Model AB": sweep the per-eviction victim value q from
// 0 (Model A) to h'/n̄(C) (Model B) and track the threshold, gain and
// excess cost. The paper argues results interpolate monotonically — which
// is why Model A (one parameter fewer) is an adequate stand-in for the
// realistic middle ground.
#include <iostream>

#include "core/excess_cost.hpp"
#include "core/interaction.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("table_victim_value_sweep",
                 "Model AB: sweep the eviction-victim value q");
  // Defaults satisfy eq. (6): n̄(F)·p ≤ f' (0.8·0.7 = 0.56 ≤ 0.7).
  args.add_flag("hprime", flag::kNumber, "0.3", "no-prefetch hit ratio h'");
  args.add_flag("cache-items", flag::kPositiveNumber, "20",
                "n̄(C) (small to magnify the sweep)");
  args.add_flag("p", flag::kNumber, "0.7", "access probability");
  args.add_flag("nf", flag::kNumber, "0.8", "prefetch rate n̄(F)");
  args.add_flag("csv", flag::kBool, "false", "emit CSV instead of markdown");
  args.parse(argc, argv);

  core::SystemParams params;
  params.bandwidth = 50.0;
  params.request_rate = 30.0;
  params.mean_item_size = 1.0;
  params.hit_ratio = args.get_double("hprime");
  params.cache_items = args.get_double("cache-items");
  args.require_valid(params.check());
  const core::OperatingPoint op{args.get_double("p"), args.get_double("nf")};
  const ArgParser::FieldFlags op_flags = {{"access_probability", "p"},
                                          {"prefetch_rate", "nf"},
                                          {"utilization", "nf"}};
  args.require_valid(op.check(), op_flags);
  args.require_valid(op.check_candidates(params), op_flags);

  const double q_model_b =
      core::victim_value(params, core::InteractionModel::kModelB);
  // The load grows with q, so the sweep's last row (Model B) bounds it.
  args.require_valid(
      core::analyze_with_victim_value(params, op, q_model_b).check_stable(),
      op_flags);

  Table table({"q/q_B", "q", "p_th", "h", "rho", "t", "G", "C"});
  table.set_title("Model AB sweep: victim value q from Model A (0) to Model "
                  "B (h'/n̄C=" + std::to_string(q_model_b).substr(0, 6) + ")");
  table.set_precision(5);

  for (double frac = 0.0; frac <= 1.0 + 1e-9; frac += 0.125) {
    const double q = frac * q_model_b;
    const auto a = core::analyze_with_victim_value(params, op, q);
    const double c = core::excess_cost(a.utilization, a.baseline.utilization,
                                       params.request_rate);
    table.add_row({frac, q, a.threshold, a.hit_ratio, a.utilization,
                   a.access_time, a.gain, c});
  }
  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
    std::cout << "Expected: every column monotone in q; endpoints equal "
                 "Model A (q=0) and Model B (q/q_B=1).\n";
  }
  return 0;
}
