// Stability-frontier map: where does speculative prefetching tip the link
// from stable into divergence — empirically, on the full stack?
//
// The paper's analytic answer lives in src/queueing: an M/G/1-PS link with
// offered load ρ ≥ 1 has no stationary regime. This sweep draws the
// *empirical* version of that frontier over a 2-D grid of
//
//   arrival-rate multiplier  ×  prefetch aggressiveness
//
// where the aggressiveness axis is either the open-loop fixed-θ policy's
// threshold or a governor's primary knob (token refill rate / AIMD
// slowdown setpoint / confidence precision bound). Every cell runs the
// full replay with a telemetry plane and an online DivergenceDetector
// (obs/divergence.hpp) attached; the cell's verdict (stable / metastable /
// divergent), time-of-onset, peak smoothed depth, and instant-hit ratio
// come from the detector and the run result, and each cell also carries
// the naive demand-only analytic bound ρ = λ·x̄ for diffing the empirical
// frontier against the M/G/1-PS prediction (prefetch traffic pushes the
// empirical frontier left of it).
//
// With --abort (default), divergent cells terminate at verdict time
// instead of simulating an exploding queue to the horizon — the detector's
// early-abort hook is what makes dense frontier grids affordable.
// --check-abort-speedup reruns the deepest aborted cell with the abort
// disarmed and fails unless aborting saved at least --min-abort-speedup x
// wall-clock.
//
//   ./stability_map                                 # default 4x3 grid
//   ./stability_map --family token --aggressiveness 4000,1000,250
//   ./stability_map --smoke --rates 0.6,2.0 --aggressiveness 0.4,0.02
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "queueing/mg1_ps.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/argparse.hpp"
#include "util/contract.hpp"
#include "util/table.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

struct GridCell {
  std::string scenario;
  double rate_mult = 1.0;
  std::string label;       ///< policy/governor axis value ("fixed-0.05")
  double aggressiveness = 0.0;  ///< governor's own report (θ for fixed)
  StabilityVerdict verdict = StabilityVerdict::kStable;
  double onset = -1.0;
  std::string onset_signal;
  double peak_depth = 0.0;
  double instant_hit = 0.0;
  double analytic_rho = 0.0;
  bool aborted = false;
  double wall_s = 0.0;
};

std::vector<double> parse_double_list(const std::string& csv,
                                      const char* what) {
  std::vector<double> out;
  for (const std::string& tok : split_csv(csv)) {
    try {
      out.push_back(std::stod(tok));
    } catch (...) {
      std::fprintf(stderr, "ignoring malformed %s '%s'\n", what, tok.c_str());
    }
  }
  return out;
}

/// Trims trailing zeros so grid labels read "fixed-0.05", not
/// "fixed-0.050000".
std::string compact_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("stability_map",
                 "Empirical stability frontier: arrival rate x prefetch "
                 "aggressiveness, classified by the divergence detector");
  args.add_flag("users", "20000", "population size");
  args.add_flag("requests", "150000", "trace length at rate multiplier 1.0");
  args.add_flag("rate", "2000", "base aggregate request rate (req/s)");
  args.add_flag("pages", "400", "site size (pages)");
  args.add_flag("cache", "8", "per-user cache capacity (pages)");
  args.add_flag("bandwidth", "3000", "per-region link bandwidth (pages/s)");
  args.add_flag("prefetch", "4", "max prefetch candidates per request");
  args.add_flag("rates", "0.5,0.7,0.82,1.0",
                "arrival-rate multipliers (trace length scales with the "
                "multiplier so the simulated span stays constant)");
  args.add_flag("family", "fixed",
                "aggressiveness axis: fixed (open-loop fixed-<theta> "
                "policy) | token | aimd | conf (aggressive fixed policy "
                "behind the named governor)");
  args.add_flag("aggressiveness", "0.4,0.35,0.2",
                "comma-separated values for the family's primary knob");
  args.add_flag("base-policy", "fixed-0.02",
                "open-loop policy governed runs use (families != fixed)");
  args.add_flag("scenarios", "stationary,flash",
                "comma-separated scenario names "
                "(stationary|diurnal|flash|hotspot)");
  args.add_flag("shards", "1", "number of regional shards");
  args.add_flag("threads", "1",
                "worker threads for the shard driver (0 = hardware)");
  args.add_flag("backbone-bandwidth", "46000",
                "per-region origin uplink bandwidth (pages/s)");
  args.add_flag("backbone-latency", "0.05",
                "cross-shard latency = epoch lookahead (s)");
  args.add_flag("seed", "2001", "random seed");
  args.add_flag("sample-interval", "0.25",
                "telemetry gauge sampling cadence (sim-seconds)");
  args.add_flag("stream-window", "2048",
                "records per engine batch — also the unsharded detector's "
                "evaluation cadence, so it stays well below the trace");
  args.add_flag("window", "32", "detector trend window (rows)");
  args.add_flag("growth-run", "6",
                "detector sustained-growth run length (steps)");
  args.add_flag("slope-threshold", "0.05",
                "detector Theil-Sen slope threshold (units/s)");
  args.add_flag("depth-level", "8",
                "detector elevated-plateau depth threshold (jobs)");
  args.add_flag("abort", "true",
                "terminate divergent cells at verdict time instead of "
                "simulating the exploding queue to the horizon");
  args.add_flag("out", "BENCH_stability.json",
                "benchmark-JSON output path (empty = skip)");
  args.add_flag("csv", "",
                "frontier heatmap CSV output path (empty = skip)");
  args.add_flag("smoke", "false",
                "CI gate: fail unless the grid shows >=1 stable and >=1 "
                "divergent cell, with >=1 early abort when --abort is on");
  args.add_flag("check-abort-speedup", "false",
                "rerun the deepest aborted cell with the abort disarmed "
                "and fail unless aborting saved >= --min-abort-speedup x "
                "wall-clock");
  args.add_flag("min-abort-speedup", "2.0",
                "wall-clock ratio --check-abort-speedup requires");
  if (!args.parse(argc, argv)) return 1;

  const std::vector<double> rate_mults =
      parse_double_list(args.get_string("rates"), "rate multiplier");
  const std::vector<double> aggr_values =
      parse_double_list(args.get_string("aggressiveness"), "aggressiveness");
  const std::string family = args.get_string("family");
  if (rate_mults.empty() || aggr_values.empty()) {
    std::fprintf(stderr, "empty sweep axis\n");
    return 1;
  }
  if (family != "fixed" && family != "token" && family != "aimd" &&
      family != "conf") {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 1;
  }

  const auto shards = static_cast<std::size_t>(args.get_uint("shards"));
  const auto threads = static_cast<std::size_t>(args.get_uint("threads"));
  const bool abort_on = args.get_bool("abort");
  const double base_rate = args.get_double("rate");
  const double bandwidth = args.get_double("bandwidth");
  const auto base_requests =
      static_cast<std::size_t>(args.get_uint("requests"));

  TelemetryConfig tele_cfg;
  tele_cfg.sample_interval = args.get_double("sample-interval");

  DivergenceConfig det_cfg;
  det_cfg.window = static_cast<std::size_t>(args.get_uint("window"));
  det_cfg.min_growth_run =
      static_cast<std::size_t>(args.get_uint("growth-run"));
  det_cfg.slope_threshold = args.get_double("slope-threshold");
  det_cfg.depth_level = args.get_double("depth-level");

  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  trace_cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.graph.link_skew = 1.6;
  trace_cfg.seed = args.get_uint("seed");
  // Span at multiplier 1 — held constant across the rate axis by scaling
  // the trace length with the multiplier.
  const double span = static_cast<double>(base_requests) / base_rate;

  TraceReplayConfig replay_base;
  replay_base.bandwidth = bandwidth;
  replay_base.cache_capacity =
      static_cast<std::size_t>(args.get_uint("cache"));
  replay_base.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  replay_base.max_prefetch_per_request =
      static_cast<std::size_t>(args.get_uint("prefetch"));
  replay_base.seed = trace_cfg.seed;
  replay_base.enable_load_sensor = true;
  replay_base.stream_window =
      static_cast<std::size_t>(args.get_uint("stream-window"));

  // The detector ignores the replay's warmup prefix: empty caches and an
  // untrained predictor make the opening seconds look like sustained queue
  // growth in every cell, which is a cold-start artifact, not divergence.
  det_cfg.settle_time = replay_base.warmup_fraction * span;
  det_cfg.validate();

  // One cell: fresh trace slice config, fresh plane(s), fresh detector.
  // Returns the run's wall-clock through cell.wall_s.
  const auto run_cell = [&](const std::string& scenario, double mult,
                            double aggr, bool allow_abort) {
    GridCell cell;
    cell.scenario = scenario;
    cell.rate_mult = mult;

    SyntheticTraceConfig cfg = trace_cfg;
    cfg.request_rate = base_rate * mult;
    cfg.num_requests = static_cast<std::size_t>(
        static_cast<double>(base_requests) * mult);
    const bool known = make_scenario_modulation(
        scenario, span, std::max<std::size_t>(shards, 1), &cfg.modulation);
    SPECPF_EXPECTS(known);

    TraceReplayConfig replay_cfg = replay_base;
    std::string policy_name;
    if (family == "fixed") {
      policy_name = "fixed-" + compact_number(aggr);
      cell.aggressiveness = aggr;
    } else {
      policy_name = args.get_string("base-policy");
      replay_cfg.governor = family + "-" + compact_number(aggr);
      // Read the knob back through the governor's own introspection so the
      // annotation cannot drift from what the run actually constructed.
      const auto probe = make_governor_by_name(replay_cfg.governor);
      SPECPF_EXPECTS(probe != nullptr);
      cell.aggressiveness = probe->aggressiveness();
    }
    cell.label = family == "fixed" ? policy_name : replay_cfg.governor;

    // Demand-only analytic bound: λ·x̄ with every request a miss and no
    // prefetch traffic. The empirical frontier sits left of ρ = 1 exactly
    // by the speculative load the policy adds (minus what caching absorbs).
    cell.analytic_rho = MG1PS(cfg.request_rate, 1.0 / bandwidth).utilization();

    const Trace trace = generate_synthetic_trace(cfg);
    DivergenceDetector detector;
    detector.configure(det_cfg);

    const auto t0 = Clock::now();
    ProxySimResult r;
    if (shards <= 1) {
      TelemetryPlane plane(tele_cfg);
      replay_cfg.telemetry = &plane;
      replay_cfg.divergence = &detector;
      replay_cfg.abort_on_divergence = allow_abort;
      const auto policy = make_policy_by_name(policy_name);
      SPECPF_EXPECTS(policy != nullptr);
      r = run_trace_replay(trace, replay_cfg, *policy);
    } else {
      ShardedReplayConfig sharded_cfg;
      sharded_cfg.stack = std::move(replay_cfg);
      sharded_cfg.num_shards = shards;
      sharded_cfg.num_threads = threads;
      sharded_cfg.backbone_bandwidth = args.get_double("backbone-bandwidth");
      sharded_cfg.backbone_latency = args.get_double("backbone-latency");
      TelemetryFleet fleet(tele_cfg, shards);
      sharded_cfg.telemetry = &fleet;
      sharded_cfg.divergence = &detector;
      sharded_cfg.abort_on_divergence = allow_abort;
      r = run_sharded_replay(trace, sharded_cfg,
                             [&policy_name] {
                               return make_policy_by_name(policy_name);
                             })
              .merged;
    }
    cell.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

    cell.verdict = detector.verdict();
    cell.onset = detector.onset_time();
    cell.onset_signal = detector.onset_signal();
    for (std::size_t i = 0; i < detector.num_signals(); ++i) {
      cell.peak_depth = std::max(cell.peak_depth, detector.peak(i));
    }
    cell.instant_hit =
        r.hit_ratio - (r.requests ? static_cast<double>(r.inflight_hits) /
                                        static_cast<double>(r.requests)
                                  : 0.0);
    // A run that aborted handled strictly fewer requests than its trace
    // scheduled (measurement covers everything past the warmup boundary).
    const auto warmup = static_cast<std::uint64_t>(
        replay_base.warmup_fraction * static_cast<double>(trace.size()));
    cell.aborted = allow_abort &&
                   cell.verdict == StabilityVerdict::kDivergent &&
                   r.requests < trace.size() - warmup;
    return cell;
  };

  std::vector<GridCell> cells;
  for (const std::string& scenario :
       split_csv(args.get_string("scenarios"))) {
    ArrivalModulation probe;
    if (!make_scenario_modulation(scenario, span,
                                  std::max<std::size_t>(shards, 1),
                                  &probe)) {
      std::fprintf(stderr, "unknown scenario '%s', skipping\n",
                   scenario.c_str());
      continue;
    }
    Table table({"rate x", "cell", "verdict", "onset s", "peak depth",
                 "instant hit", "analytic rho", "aborted", "wall s"});
    table.set_title("scenario: " + scenario + "  (family " + family +
                    ", span " + compact_number(span) + "s)");
    table.set_precision(4);
    for (const double mult : rate_mults) {
      for (const double aggr : aggr_values) {
        const GridCell cell = run_cell(scenario, mult, aggr, abort_on);
        table.add_row({cell.rate_mult, cell.label,
                       std::string(verdict_name(cell.verdict)), cell.onset,
                       cell.peak_depth, cell.instant_hit, cell.analytic_rho,
                       std::string(cell.aborted ? "yes" : "no"),
                       cell.wall_s});
        cells.push_back(cell);
      }
    }
    table.print(std::cout);
    std::printf("\n");
  }
  if (cells.empty()) {
    std::fprintf(stderr, "no cells ran\n");
    return 1;
  }

  std::size_t stable_cells = 0;
  std::size_t metastable_cells = 0;
  std::size_t divergent_cells = 0;
  std::size_t aborted_cells = 0;
  for (const GridCell& c : cells) {
    stable_cells += c.verdict == StabilityVerdict::kStable;
    metastable_cells += c.verdict == StabilityVerdict::kMetastable;
    divergent_cells += c.verdict == StabilityVerdict::kDivergent;
    aborted_cells += c.aborted;
  }
  std::printf("%zu cells: %zu stable, %zu metastable, %zu divergent "
              "(%zu aborted early)\n",
              cells.size(), stable_cells, metastable_cells, divergent_cells,
              aborted_cells);

  // ---- Heatmap CSV ---------------------------------------------------
  const std::string csv_path = args.get_string("csv");
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "scenario,rate_mult,cell,aggressiveness,verdict,onset_s,"
                 "onset_signal,peak_depth,instant_hit,analytic_rho,aborted,"
                 "wall_s\n");
    for (const GridCell& c : cells) {
      std::fprintf(f, "%s,%.9g,%s,%.9g,%s,%.9g,%s,%.9g,%.9g,%.9g,%d,%.9g\n",
                   c.scenario.c_str(), c.rate_mult, c.label.c_str(),
                   c.aggressiveness, verdict_name(c.verdict), c.onset,
                   c.onset_signal.c_str(), c.peak_depth, c.instant_hit,
                   c.analytic_rho, c.aborted ? 1 : 0, c.wall_s);
    }
    std::fclose(f);
    std::printf("wrote %s\n", csv_path.c_str());
  }

  // ---- Benchmark JSON ------------------------------------------------
  const std::string out_path = args.get_string("out");
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": 1,\n  \"benchmarks\": [\n");
    bool first = true;
    const auto emit = [&](const std::string& name, double value,
                          const char* unit) {
      std::fprintf(f, "%s    {\"name\": \"%s\", \"value\": %.6g, "
                      "\"unit\": \"%s\"}",
                   first ? "" : ",\n", name.c_str(), value, unit);
      first = false;
    };
    for (const GridCell& c : cells) {
      const std::string base = "stability/" + c.scenario + "/rate-" +
                               compact_number(c.rate_mult) + "/" + c.label;
      emit(base + "/verdict", static_cast<double>(c.verdict), "verdict");
      emit(base + "/onset", c.onset, "s");
      emit(base + "/peak_depth", c.peak_depth, "jobs");
      emit(base + "/instant_hit", c.instant_hit, "ratio");
      emit(base + "/analytic_rho", c.analytic_rho, "rho");
      emit(base + "/aborted", c.aborted ? 1.0 : 0.0, "bool");
      emit(base + "/wall_s", c.wall_s, "s");
    }
    emit("stability/cells", static_cast<double>(cells.size()), "count");
    emit("stability/stable_cells", static_cast<double>(stable_cells),
         "count");
    emit("stability/metastable_cells",
         static_cast<double>(metastable_cells), "count");
    emit("stability/divergent_cells", static_cast<double>(divergent_cells),
         "count");
    emit("stability/aborted_cells", static_cast<double>(aborted_cells),
         "count");
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // ---- Early-abort wall-clock gate -----------------------------------
  if (args.get_bool("check-abort-speedup")) {
    const GridCell* deepest = nullptr;
    for (const GridCell& c : cells) {
      if (!c.aborted) continue;
      if (deepest == nullptr || c.analytic_rho > deepest->analytic_rho) {
        deepest = &c;
      }
    }
    if (deepest == nullptr) {
      std::fprintf(stderr,
                   "--check-abort-speedup: no cell aborted (is --abort "
                   "off, or the grid entirely stable?)\n");
      return 1;
    }
    // The stored knob round-trips through compact_number into the same
    // policy/governor name the original cell constructed.
    const GridCell rerun = run_cell(deepest->scenario, deepest->rate_mult,
                                deepest->aggressiveness,
                                /*allow_abort=*/false);
    const double ratio =
        deepest->wall_s > 0.0 ? rerun.wall_s / deepest->wall_s : 0.0;
    std::printf("abort speedup on %s rate-%s %s: %.3gs -> %.3gs (%.2fx)\n",
                deepest->scenario.c_str(),
                compact_number(deepest->rate_mult).c_str(),
                deepest->label.c_str(), rerun.wall_s, deepest->wall_s,
                ratio);
    const double need = args.get_double("min-abort-speedup");
    if (ratio < need) {
      std::fprintf(stderr, "abort speedup %.2fx below the %.2fx gate\n",
                   ratio, need);
      return 1;
    }
  }

  // ---- Smoke gate ----------------------------------------------------
  if (args.get_bool("smoke")) {
    const bool regimes_ok = stable_cells >= 1 && divergent_cells >= 1;
    const bool abort_ok = !abort_on || aborted_cells >= 1;
    if (!regimes_ok || !abort_ok) {
      std::fprintf(stderr,
                   "smoke gate failed: need >=1 stable and >=1 divergent "
                   "cell%s (got %zu/%zu/%zu stable/meta/divergent, %zu "
                   "aborted)\n",
                   abort_on ? " plus >=1 early abort" : "", stable_cells,
                   metastable_cells, divergent_cells, aborted_cells);
      return 1;
    }
    std::printf("smoke gate OK\n");
  }
  return 0;
}
