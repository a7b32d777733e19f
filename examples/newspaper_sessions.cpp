// ETEL-style electronic newspaper (paper ref. [1]): strongly patterned
// reading paths — front page, then sections, then articles. Demonstrates
// trace recording/replay and the server-side dependency-graph predictor of
// Padmanabhan & Mogul (paper ref. [7]) feeding the threshold rule.
//
//   ./newspaper_sessions --trace /tmp/newspaper.csv
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  ArgParser args("newspaper_sessions",
                 "Patterned newspaper browsing with dependency-graph "
                 "prediction");
  args.add_flag("duration", flag::kPositiveNumber, "1200",
                "measured seconds per run");
  args.add_flag("users", flag::kPositiveUint, "8",
                "number of concurrent readers");
  args.add_flag("bandwidth", flag::kPositiveNumber, "45",
                "shared link bandwidth (pages/s)");
  args.add_flag("pages", flag::kPositiveUint, "200", "site size (pages)");
  args.add_flag("cache", flag::kPositiveUint, "40",
                "per-reader cache capacity (pages)");
  args.add_flag("link-skew", flag::kNumber, "2.0",
                "Zipf skew across a page's links (readers follow the lead "
                "story)");
  args.add_flag("entry-skew", flag::kPositiveNumber, "1.5",
                "Zipf skew of session entries (front page dominates)");
  args.add_flag("seed", flag::kUint, "1997",
                "random seed (default: the ETEL year)");
  args.add_flag("trace", flag::kOutputPath, "",
                "optional path to write the replayed workload as trace CSV");
  args.parse(argc, argv);

  // A newspaper: few entry pages (front page dominates via entry_skew),
  // heavily skewed link choices (lead story first).
  ProxySimConfig cfg;
  cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  cfg.bandwidth = args.get_double("bandwidth");
  cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  cfg.graph.out_degree = 5;
  cfg.graph.exit_probability = 0.15;
  cfg.graph.link_skew = args.get_double("link-skew");
  cfg.graph.entry_skew = args.get_double("entry-skew");
  cfg.session_rate_per_user = 0.6;
  cfg.think_time_mean = 0.6;
  cfg.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  cfg.predictor_kind = ProxySimConfig::PredictorKind::kDependencyGraph;
  cfg.duration = args.get_double("duration");
  cfg.warmup = cfg.duration / 10.0;
  cfg.seed = args.get_uint("seed");
  args.require_valid(cfg.check());

  // Every run below replays this one workload; --trace records it.
  const std::string trace_path = args.get_string("trace");
  if (!trace_path.empty()) {
    SessionTraceSource source = proxy_session_source(cfg);
    Trace trace;
    for (TraceRecord r; source.next(&r);) trace.append(r);
    try {
      TraceVectorSource view(trace);
      save_csv_file(trace_path, view);
    } catch (const std::runtime_error&) {
      args.reject_value("trace", "writable path", trace_path);
    }
    const Trace reloaded = Trace::load_csv_file(trace_path);
    std::printf("workload: %zu requests, %zu unique pages, %.2f req/s mean "
                "rate; written to %s and re-read (%zu records)\n\n",
                trace.size(), trace.unique_items(), trace.mean_request_rate(),
                trace_path.c_str(), reloaded.size());
  }

  Table table({"policy", "access time", "hit ratio", "rho", "useful frac"});
  table.set_precision(4);

  NoPrefetchPolicy none;
  const auto base = run_proxy_sim(cfg, none);
  table.add_row({base.policy, base.mean_access_time, base.hit_ratio,
                 base.server_utilization, 0.0});

  ThresholdPolicy threshold(core::InteractionModel::kModelA);
  const auto pref = run_proxy_sim(cfg, threshold);
  table.add_row({pref.policy, pref.mean_access_time, pref.hit_ratio,
                 pref.server_utilization, pref.prefetch_useful_fraction});

  TopKPolicy topk(1);
  const auto tk = run_proxy_sim(cfg, topk);
  table.add_row({tk.policy, tk.mean_access_time, tk.hit_ratio,
                 tk.server_utilization, tk.prefetch_useful_fraction});

  table.print(std::cout);
  return 0;
}
