// Reproduces Figure 2: access improvement G against the prefetch rate
// n̄(F) ∈ [0, 2], one curve per access probability p ∈ {0.1 … 0.9}; panels
// for h' = 0.0 and h' = 0.3. Parameters s̄ = 1, λ = 30, b = 50, Model A.
//
// Expected shape (paper): every curve is monotone and keeps one sign over
// its whole range — positive exactly when p exceeds p_th (0.6 for h'=0,
// 0.42 for h'=0.3). Points where condition 3 fails (saturated system) are
// marked "sat" — the closed form is meaningless there.
#include <iostream>

#include "core/model_a.hpp"
#include "core/interaction.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

namespace {

void panel(double hit_ratio, bool csv) {
  using namespace specpf;
  std::vector<std::string> headers{"nF"};
  for (int p10 = 1; p10 <= 9; ++p10) {
    headers.push_back("p=0." + std::to_string(p10));
  }
  Table table(std::move(headers));
  core::SystemParams params;
  params.bandwidth = 50.0;
  params.request_rate = 30.0;
  params.mean_item_size = 1.0;
  params.hit_ratio = hit_ratio;
  const double pth = core::threshold(params, core::InteractionModel::kModelA);
  table.set_title(
      "Fig. 2 — G vs n̄(F)   (s=1, lambda=30, b=50, h'=" +
      std::to_string(hit_ratio).substr(0, 3) +
      ", Model A; p_th=" + std::to_string(pth).substr(0, 4) + ")");
  table.set_precision(4);

  for (double nf = 0.0; nf <= 2.0 + 1e-9; nf += 0.2) {
    std::vector<Cell> row{nf};
    for (int p10 = 1; p10 <= 9; ++p10) {
      const double p = p10 / 10.0;
      if (nf == 0.0) {
        row.push_back(0.0);
        continue;
      }
      const auto analysis =
          core::analyze(params, {p, nf}, core::InteractionModel::kModelA);
      if (!analysis.conditions.total_within_capacity) {
        row.push_back(std::string("sat"));
      } else {
        row.push_back(analysis.gain);
      }
    }
    table.add_row(std::move(row));
  }
  if (csv) {
    std::cout << table.to_csv() << '\n';
  } else {
    table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  specpf::ArgParser args("fig2_gain_vs_prefetch_rate",
                         "Reproduces paper Fig. 2 (G vs n̄(F))");
  args.add_flag("csv", specpf::flag::kBool, "false",
                "emit CSV instead of markdown");
  args.parse(argc, argv);
  panel(0.0, args.get_bool("csv"));
  panel(0.3, args.get_bool("csv"));
  return 0;
}
