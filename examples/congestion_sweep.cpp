// Congestion sweep: governed vs ungoverned prefetching under nonstationary
// load — the closed-loop control plane's headline demo.
//
// For each scenario (stationary / diurnal / flash crowd / per-shard
// hotspot) the sweep replays the same trace under one prefetch policy with
// each governor in turn (plus the ungoverned baseline, sensor on), and
// reports what the link actually saw: peak smoothed queue depth, peak
// slowdown, mean access time, hit ratio, and how many prefetches the
// governor refused. The paper's open-loop threshold rule self-throttles on
// *average* load; these scenarios are where averages lie, and where the
// feedback loop earns its keep.
//
//   ./congestion_sweep --users 100000 --requests 400000 --shards 4
//   ./congestion_sweep --policy fixed-0.05 --governors none,token-2000
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

/// Telemetry output path for one scenario x governor run: inserts
/// "-<scenario>-<gov>" before the extension so a sweep never overwrites
/// its own exports ("out.json" -> "out-flash-token-200.json").
std::string run_output_path(const std::string& base,
                            const std::string& scenario,
                            const std::string& gov) {
  const std::size_t dot = base.find_last_of('.');
  const std::string suffix = "-" + scenario + "-" + gov;
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

void print_per_shard_stats(const ShardedReplayResult& sr) {
  Table table({"shard", "requests", "hit ratio", "peak depth", "events",
               "mbox sent", "mbox recv"});
  table.set_title("per-shard breakdown (epochs " + std::to_string(sr.epochs) +
                  ", cross-shard events " +
                  std::to_string(sr.cross_shard_events) + ")");
  table.set_precision(4);
  for (std::size_t s = 0; s < sr.num_shards; ++s) {
    const ProxySimResult& r = sr.per_shard[s];
    const ShardLoadStats& load = sr.shard_load[s];
    table.add_row({static_cast<std::int64_t>(s),
                   static_cast<std::int64_t>(r.requests), r.hit_ratio,
                   r.peak_queue_depth,
                   static_cast<std::int64_t>(load.events_executed),
                   static_cast<std::int64_t>(load.mailbox_sent),
                   static_cast<std::int64_t>(load.mailbox_received)});
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("congestion_sweep",
                 "Governed vs ungoverned prefetching under nonstationary "
                 "load");
  args.add_flag("users", flag::kPositiveUint, "100000", "population size");
  args.add_flag("requests", flag::kPositiveUint, "400000",
                "trace length per scenario");
  args.add_flag("rate", flag::kPositiveNumber, "4000",
                "base aggregate request rate (req/s)");
  args.add_flag("pages", flag::kPositiveUint, "400", "site size (pages)");
  args.add_flag("cache", flag::kPositiveUint, "8",
                "per-user cache capacity (pages)");
  args.add_flag("bandwidth", flag::kPositiveNumber, "23000",
                "per-region link bandwidth (pages/s)");
  args.add_flag("prefetch", flag::kPositiveUint, "4",
                "max prefetch candidates per request");
  args.add_flag("policy",
                flag::name("policy name",
                           [](const std::string& name) {
                             return make_policy_by_name(name) != nullptr;
                           }),
                "fixed-0.05",
                "prefetch policy (an aggressive open-loop heuristic shows "
                "the governors best)");
  args.add_flag("governors",
                flag::list(flag::name("governor name",
                                      [](const std::string& name) {
                                        return name == "none" ||
                                               is_governor_name(name);
                                      })),
                "none,token-200,aimd-3,conf-0.35",
                "none|noop|token-<rate>|aimd-<setpoint>|conf-<precision>");
  args.add_flag("scenarios",
                flag::list(flag::name("scenario name",
                                      [](const std::string& name) {
                                        ArrivalModulation mod;
                                        return make_scenario_modulation(
                                            name, 1.0, 1, &mod);
                                      })),
                "stationary,diurnal,flash,hotspot",
                "stationary|diurnal|flash|hotspot");
  args.add_flag("shards", flag::kPositiveUint, "1",
                "number of regional shards");
  args.add_flag("threads", flag::kUint, "1",
                "worker threads for the shard driver (0 = hardware)");
  args.add_flag("backbone-bandwidth", flag::kPositiveNumber, "46000",
                "per-region origin uplink bandwidth (pages/s)");
  args.add_flag("backbone-latency", flag::kPositiveNumber, "0.05",
                "cross-shard latency = epoch lookahead (s)");
  args.add_flag("seed", flag::kUint, "2001", "random seed");
  args.add_flag("trace", flag::kOutputPath, "",
                "export a Chrome trace-event JSON (Perfetto-loadable) per "
                "run; '-<scenario>-<governor>' is inserted before the "
                "extension");
  args.add_flag("timeseries", flag::kOutputPath, "",
                "export the sampled gauge time series as CSV per run (same "
                "suffix rule as --trace)");
  args.add_flag("sample-interval", flag::kPositiveNumber, "0.25",
                "telemetry gauge sampling cadence (sim-seconds)");
  args.add_flag("per-shard-stats", flag::kBool, "false",
                "print the per-shard event/mailbox breakdown (sharded runs)");
  args.parse(argc, argv);

  const std::string trace_path = args.get_string("trace");
  const std::string series_path = args.get_string("timeseries");
  const bool telemetry_on = !trace_path.empty() || !series_path.empty();
  const bool per_shard_stats = args.get_bool("per-shard-stats");
  TelemetryConfig tele_cfg;
  tele_cfg.sample_interval = args.get_double("sample-interval");

  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  trace_cfg.num_requests = static_cast<std::size_t>(args.get_uint("requests"));
  trace_cfg.request_rate = args.get_double("rate");
  trace_cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.graph.link_skew = 1.6;
  trace_cfg.seed = args.get_uint("seed");
  const double span = static_cast<double>(trace_cfg.num_requests) /
                      trace_cfg.request_rate;

  const std::string policy = args.get_string("policy");
  const PolicyFactory factory = [policy] {
    return make_policy_by_name(policy);
  };

  ShardedReplayConfig sharded_cfg;
  sharded_cfg.num_shards = static_cast<std::size_t>(args.get_uint("shards"));
  sharded_cfg.num_threads = static_cast<std::size_t>(args.get_uint("threads"));
  sharded_cfg.backbone_bandwidth = args.get_double("backbone-bandwidth");
  sharded_cfg.backbone_latency = args.get_double("backbone-latency");
  TraceReplayConfig& replay_cfg = sharded_cfg.stack;
  replay_cfg.bandwidth = args.get_double("bandwidth");
  replay_cfg.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  replay_cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  replay_cfg.max_prefetch_per_request =
      static_cast<std::size_t>(args.get_uint("prefetch"));
  replay_cfg.seed = trace_cfg.seed;
  replay_cfg.enable_load_sensor = true;  // baselines report peaks too
  // Check the config of every run up front, before any trace is built.
  const std::vector<std::string> governors =
      args.get_list<std::string>("governors");
  for (const std::string& gov : governors) {
    replay_cfg.governor = gov == "none" ? "" : gov;
    args.require_valid(sharded_cfg.check());
  }

  for (const std::string& scenario : args.get_list<std::string>("scenarios")) {
    make_scenario_modulation(scenario, span, sharded_cfg.num_shards,
                             &trace_cfg.modulation);
    const Trace trace = generate_synthetic_trace(trace_cfg);
    Table table({"governor", "peak depth", "peak slowdown", "access time",
                 "p50", "p95", "p99", "hit ratio", "instant hit", "rho",
                 "prefetch jobs", "throttled", "backbone peak", "wall s"});
    table.set_title("scenario: " + scenario +
                    "  (span " + std::to_string(trace.duration()).substr(0, 6) +
                    "s, " + std::to_string(trace.size()) + " requests)");
    table.set_precision(4);
    for (const std::string& gov : governors) {
      replay_cfg.governor = gov == "none" ? "" : gov;
      const auto t0 = Clock::now();
      // Telemetry lives per run, one plane per shard, exported before the
      // next governor reuses the config.
      std::unique_ptr<TelemetryFleet> fleet;
      if (telemetry_on) {
        fleet = std::make_unique<TelemetryFleet>(tele_cfg,
                                                 sharded_cfg.num_shards);
      }
      sharded_cfg.telemetry = fleet.get();
      const ShardedReplayResult sr =
          run_sharded_replay(trace, sharded_cfg, factory);
      const ProxySimResult& r = sr.merged;
      if (per_shard_stats && sr.num_shards > 1) print_per_shard_stats(sr);
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (!trace_path.empty()) {
        const std::string out = run_output_path(trace_path, scenario, gov);
        if (!write_chrome_trace(out, *fleet)) {
          std::fprintf(stderr, "cannot write trace '%s'\n", out.c_str());
        }
      }
      if (!series_path.empty()) {
        const std::string out = run_output_path(series_path, scenario, gov);
        if (!write_timeseries_csv(out, *fleet)) {
          std::fprintf(stderr, "cannot write series '%s'\n", out.c_str());
        }
      }
      // "instant hit" = served from cache with zero wait; the overall hit
      // ratio also counts hits that blocked on a live transfer, which is
      // exactly what congestion inflates.
      const double instant_hit =
          r.hit_ratio - (r.requests ? static_cast<double>(r.inflight_hits) /
                                          static_cast<double>(r.requests)
                                    : 0.0);
      table.add_row({gov, r.peak_queue_depth, r.peak_slowdown,
                     r.mean_access_time, r.access_time_p50, r.access_time_p95,
                     r.access_time_p99, r.hit_ratio, instant_hit,
                     r.server_utilization,
                     static_cast<std::int64_t>(r.prefetch_jobs),
                     static_cast<std::int64_t>(r.throttled_prefetches),
                     sr.backbone.peak_queue_depth, secs});
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Reading: the ungoverned row shows what an open-loop prefetcher does\n"
      "to the link when load turns nonstationary; a good governor cuts the\n"
      "peak depth/slowdown at equal or better hit ratio by refusing\n"
      "prefetches exactly while the link is congested.\n");
  return 0;
}
