// Predictor calibration: the threshold rule consumes *probabilities*, so a
// predictor that ranks well but is miscalibrated will mis-place the
// threshold. For each predictor this table buckets its predicted
// probabilities and reports the realised next-access frequency per bucket,
// plus aggregate precision/coverage of the top prediction.
//
// Workload: Markov session graph (so the oracle's numbers are the true
// conditionals — its calibration should be exact).
#include <array>
#include <iostream>
#include <memory>
#include <utility>

#include "predict/predictor_plane.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "workload/session_graph.hpp"

namespace {

using namespace specpf;

struct Calibration {
  // 10 buckets over predicted probability [0, 1).
  std::array<std::uint64_t, 10> predicted{};
  std::array<std::uint64_t, 10> realized{};
  std::uint64_t top1_correct = 0;
  std::uint64_t predictions_made = 0;
  double brier_sum = 0.0;
  std::uint64_t brier_terms = 0;
};

Calibration evaluate(PredictorPlane& predictor, const SessionGraph& graph,
                     std::size_t requests, std::uint64_t seed) {
  Calibration cal;
  Rng rng(seed);
  std::uint64_t page = graph.sample_entry(rng);
  predictor.observe(0, page);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto predictions = predictor.predict(0, 8);
    // Determine the actual next access (new session on exit).
    std::uint64_t next = 0;
    if (!graph.sample_next(page, rng, &next)) {
      next = graph.sample_entry(rng);
    }
    if (!predictions.empty()) {
      ++cal.predictions_made;
      if (predictions.front().item == next) ++cal.top1_correct;
      for (const auto& c : predictions) {
        const auto bucket = std::min<std::size_t>(
            9, static_cast<std::size_t>(c.probability * 10.0));
        ++cal.predicted[bucket];
        const bool hit = c.item == next;
        if (hit) ++cal.realized[bucket];
        const double err = c.probability - (hit ? 1.0 : 0.0);
        cal.brier_sum += err * err;
        ++cal.brier_terms;
      }
    }
    predictor.observe(0, next);
    page = next;
  }
  return cal;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("table_predictor_quality",
                 "Calibration of the access predictors");
  args.add_flag("requests", "40000", "workload length");
  args.add_flag("csv", "false", "emit CSV instead of markdown");
  if (!args.parse(argc, argv)) return 1;
  const auto requests = static_cast<std::size_t>(args.get_uint("requests"));

  SessionGraphConfig gcfg;
  gcfg.num_pages = 100;
  gcfg.out_degree = 4;
  gcfg.exit_probability = 0.2;
  gcfg.link_skew = 1.5;
  const SessionGraph graph(gcfg, 5);

  PredictorPlaneConfig plane_config;
  plane_config.num_users = 1;  // one user walks the graph
  plane_config.ppm_order = 3;
  plane_config.depgraph_lookahead = 4;
  plane_config.graph = &graph;
  struct Entry {
    std::string name;
    std::unique_ptr<PredictorPlane> predictor;
  };
  std::vector<Entry> predictors;
  for (const auto& [name, kind] :
       {std::pair{"oracle", PredictorKind::kOracle},
        std::pair{"markov", PredictorKind::kMarkov},
        std::pair{"ppm(3)", PredictorKind::kPpm},
        std::pair{"depgraph(4)", PredictorKind::kDependencyGraph},
        std::pair{"frequency", PredictorKind::kFrequency}}) {
    predictors.push_back({name, make_predictor_plane(kind, plane_config)});
  }

  Table table({"predictor", "top-1 acc", "brier", "cal 0.1-0.2", "cal 0.3-0.4",
               "cal 0.5-0.6", "cal 0.7-0.8"});
  table.set_title("Predictor calibration on a Markov session workload "
                  "(realised frequency per predicted-probability bucket; "
                  "well-calibrated ⇒ value ≈ bucket midpoint)");
  table.set_precision(4);

  for (auto& entry : predictors) {
    const Calibration cal = evaluate(*entry.predictor, graph, requests, 99);
    auto bucket_freq = [&](std::size_t b) -> Cell {
      if (cal.predicted[b] < 50) return std::string("n/a");
      return static_cast<double>(cal.realized[b]) /
             static_cast<double>(cal.predicted[b]);
    };
    table.add_row({entry.name,
                   static_cast<double>(cal.top1_correct) /
                       std::max<std::uint64_t>(1, cal.predictions_made),
                   cal.brier_sum / std::max<std::uint64_t>(1, cal.brier_terms),
                   bucket_freq(1), bucket_freq(3), bucket_freq(5),
                   bucket_freq(7)});
  }

  if (args.get_bool("csv")) {
    std::cout << table.to_csv();
  } else {
    table.print(std::cout);
    std::cout
        << "Expected: markov is the best-calibrated after convergence — it "
           "learns the full kernel\nincluding session-exit → entry-page "
           "transitions, which the within-session 'oracle' cannot\nrepresent "
           "(its candidates sum to 1 − exit_probability). frequency is "
           "badly miscalibrated\n(context-free) and thus a poor driver for "
           "the threshold rule despite its low Brier score\n(it only makes "
           "near-zero predictions).\n";
  }
  return 0;
}
