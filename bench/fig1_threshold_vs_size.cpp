// Reproduces Figure 1: threshold access probability p_th as a function of
// item size s, for bandwidths b = 50..450 — two panels, h' = 0.0 and 0.3.
// λ = 30 throughout; Model A, so p_th = f'λs/b (clipped at 1: a probability
// cannot exceed 1, i.e. past the clip prefetching can never pay off).
//
// Expected shape (paper): straight lines through the origin with slope
// f'λ/b; higher bandwidth flattens the line; h' = 0.3 scales slopes by 0.7.
#include <iostream>

#include "core/interaction.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

namespace {

void panel(double hit_ratio, double lambda, bool csv) {
  using namespace specpf;
  std::vector<std::string> headers{"s"};
  for (int b = 50; b <= 450; b += 50) {
    headers.push_back("b=" + std::to_string(b));
  }
  Table table(std::move(headers));
  table.set_title("Fig. 1 — p_th vs item size s   (lambda=" +
                  std::to_string(static_cast<int>(lambda)) +
                  ", h'=" + std::to_string(hit_ratio).substr(0, 3) +
                  ", Model A)");
  table.set_precision(4);

  for (double s = 0.0; s <= 10.0 + 1e-9; s += 0.5) {
    std::vector<Cell> row{s};
    for (int b = 50; b <= 450; b += 50) {
      core::SystemParams params;
      params.bandwidth = static_cast<double>(b);
      params.request_rate = lambda;
      params.mean_item_size = s > 0.0 ? s : 1e-9;  // p_th(0) = 0
      params.hit_ratio = hit_ratio;
      const double pth =
          core::threshold(params, core::InteractionModel::kModelA);
      row.push_back(std::min(1.0, s > 0.0 ? pth : 0.0));
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
  specpf::ArgParser args("fig1_threshold_vs_size",
                         "Reproduces paper Fig. 1 (p_th vs s)");
  args.add_flag("lambda", specpf::flag::kNumber, "30", "request rate");
  args.add_flag("csv", specpf::flag::kBool, "false",
                "emit CSV instead of markdown");
  args.parse(argc, argv);

  const double lambda = args.get_double("lambda");
  specpf::core::SystemParams params;
  params.request_rate = lambda;
  args.require_valid(params.check());
  const bool csv = args.get_bool("csv");
  panel(0.0, lambda, csv);
  panel(0.3, lambda, csv);
  return 0;
}
