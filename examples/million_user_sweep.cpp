// Million-user trace sweep: drives the full data plane (per-user tagged
// caches, in-flight bookkeeping, learned predictor, threshold policy)
// end-to-end against a large request trace — the paper's network-load
// question at the population scale where prefetcher metadata efficiency
// dominates.
//
// The request supply is pluggable (workload/trace_stream.hpp):
//   default          generate the synthetic trace in RAM (24 B/record)
//   --stream         stream the generator straight into the replay — no
//                    materialized trace, RSS bounded at any --requests
//   --trace-file F   replay a binary .spt trace through the mmap'd
//                    zero-copy cursor (workload/trace_file.hpp)
//   --from-csv F     load a CSV trace into RAM
//   --in-ram         with --trace-file: decode to RAM first (the paired
//                    baseline for streamed-vs-in-RAM comparisons)
// and the selected source can be converted instead of replayed:
//   --convert OUT.spt   write it as a binary trace and exit
//   --save-csv OUT.csv  write it as CSV and exit (both flags compose)
//
// With --shards > 1 the population is split across a sharded fleet
// (shard/sharded_sim.hpp): one engine per shard, conservative epoch
// barriers, cross-shard traffic on the backbone — and --threads worker
// threads drive the shards in parallel with bit-identical results.
//
//   ./million_user_sweep --users 1000000 --requests 3000000
//   ./million_user_sweep --shards 8 --threads 8 --policy threshold-a
//   ./million_user_sweep --requests 100000000 --stream       # out-of-core
//   ./million_user_sweep --convert big.spt --stream --requests 100000000
//   ./million_user_sweep --trace-file big.spt --shards 4
#include <chrono>
#include <cstdio>
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
#include "util/mem.hpp"
#include "util/table.hpp"
#include "workload/progress_source.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace specpf;

/// Fresh-instance factory (shards need one instance each) over the
/// library's name→policy mapping; unknown names fall back to threshold-a.
PolicyFactory policy_factory(std::string name) {
  if (!make_policy_by_name(name)) {
    std::fprintf(stderr, "unknown policy '%s', using threshold-a\n",
                 name.c_str());
    name = "threshold-a";
  }
  return [name] { return make_policy_by_name(name); };
}

/// Inserts "-<token>" before the path's extension so a multi-policy sweep
/// never overwrites its own telemetry exports.
std::string suffixed_path(const std::string& base, const std::string& token) {
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    return base + "-" + token;
  }
  return base.substr(0, dot) + "-" + token + base.substr(dot);
}

/// Streams `source` to CSV with round-trip-exact timestamp precision,
/// without materializing a Trace.
bool save_csv_streaming(const std::string& path, TraceSource& source) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "time,user,item\n");
  source.reset();
  TraceRecord r;
  while (source.next(&r)) {
    std::fprintf(f, "%.17g,%u,%llu\n", r.time, r.user,
                 static_cast<unsigned long long>(r.item));
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;

  ArgParser args("million_user_sweep",
                 "Trace-driven sweep over a million-user population");
  args.add_flag("users", "1000000", "population size");
  args.add_flag("requests", "3000000", "total trace length");
  args.add_flag("rate", "10000", "aggregate request rate (req/s)");
  args.add_flag("pages", "400", "site size (pages)");
  args.add_flag("cache", "8", "per-user cache capacity (pages)");
  args.add_flag("bandwidth", "20000", "per-region link bandwidth (pages/s)");
  args.add_flag("shards", "1", "number of shards (1 = unsharded runtime)");
  args.add_flag("threads", "1",
                "worker threads for the shard driver (0 = hardware)");
  args.add_flag("policy", "none,threshold-a",
                "comma-separated policies: none|threshold-a|threshold-b|"
                "fixed-<theta>|topk-<k>|adaptive-<w>|qos-<rho>");
  args.add_flag("backbone-bandwidth", "40000",
                "per-region origin uplink bandwidth (pages/s)");
  args.add_flag("backbone-latency", "0.05",
                "cross-shard latency = epoch lookahead (s)");
  args.add_flag("seed", "2001", "random seed");
  args.add_flag("governor", "",
                "prefetch governor: noop|token-<rate>|aimd-<setpoint>|"
                "conf-<precision> (empty = ungoverned)");
  args.add_flag("trace", "",
                "export a Chrome trace-event JSON (Perfetto-loadable) per "
                "policy; '-<policy>' is inserted before the extension");
  args.add_flag("timeseries", "",
                "export the sampled gauge time series as CSV per policy "
                "(same suffix rule as --trace)");
  args.add_flag("sample-interval", "0.25",
                "telemetry gauge sampling cadence (sim-seconds)");
  args.add_flag("per-shard-stats", "false",
                "print the per-shard event/mailbox breakdown (sharded runs)");
  args.add_flag("stream", "false",
                "stream the synthetic generator straight into the replay "
                "(no in-RAM trace; RSS stays bounded at any --requests)");
  args.add_flag("trace-file", "",
                "replay a binary .spt trace via the mmap'd cursor instead "
                "of generating one");
  args.add_flag("from-csv", "", "load the trace from a CSV file (in RAM)");
  args.add_flag("in-ram", "false",
                "with --trace-file: decode the whole file into RAM first "
                "(baseline for streamed-vs-in-RAM comparisons)");
  args.add_flag("convert", "",
                "write the selected source to this .spt path and exit");
  args.add_flag("save-csv", "",
                "write the selected source to this CSV path and exit");
  args.add_flag("stream-window", "65536",
                "records scheduled per engine batch on streamed replays");
  args.add_flag("progress", "false",
                "print a wall-clock heartbeat (records fed, req/s, peak RSS) "
                "to stderr while the replay streams");
  if (!args.parse(argc, argv)) return 1;

  const std::string trace_path = args.get_string("trace");
  const std::string series_path = args.get_string("timeseries");
  const bool telemetry_on = !trace_path.empty() || !series_path.empty();
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

  // ---- Request-supply selection -------------------------------------
  // Exactly one of `ram` (in-RAM trace) or `stream` (bounded-RSS source)
  // ends up non-null; `file` keeps the mmap alive for cursor replays.
  std::unique_ptr<Trace> ram;
  std::unique_ptr<TraceFile> file;
  std::unique_ptr<TraceSource> stream;
  std::uint64_t population = 0;  // unique users (B/user denominator)

  const std::string file_path = args.get_string("trace-file");
  const std::string csv_path = args.get_string("from-csv");
  auto t0 = Clock::now();
  if (!file_path.empty()) {
    file = std::make_unique<TraceFile>(file_path);
    const TraceFileHeader& h = file->header();
    population = h.unique_users;
    std::printf(
        "trace file %s: %llu records, %llu users, %llu items, %.0fs span, "
        "%.2f B/record%s\n",
        file_path.c_str(), static_cast<unsigned long long>(h.record_count),
        static_cast<unsigned long long>(h.unique_users),
        static_cast<unsigned long long>(h.unique_items), file->duration(),
        file->bytes_per_record(),
        args.get_bool("in-ram") ? " (decoding to RAM)" : "");
    if (args.get_bool("in-ram")) {
      ram = std::make_unique<Trace>(file->read_all());
    } else {
      stream = std::make_unique<TraceCursor>(*file);
    }
  } else if (!csv_path.empty()) {
    ram = std::make_unique<Trace>(Trace::load_csv_file(csv_path));
    population = ram->unique_users();
    std::printf("CSV trace %s: %zu records, %zu users, %.0fs span\n",
                csv_path.c_str(), ram->size(), ram->unique_users(),
                ram->duration());
  } else if (args.get_bool("stream")) {
    stream = std::make_unique<SyntheticTraceStream>(trace_cfg);
    population = trace_cfg.num_users;  // approx: configured, not appearing
    std::printf("streaming generator: %zu requests over %zu users (never "
                "materialized)\n",
                trace_cfg.num_requests, trace_cfg.num_users);
  } else {
    std::printf("generating %zu requests over %zu users...\n",
                trace_cfg.num_requests, trace_cfg.num_users);
    ram = std::make_unique<Trace>(generate_synthetic_trace(trace_cfg));
    population = ram->unique_users();
    const double gen_secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::printf("  %.1fs (%zu unique users, %zu unique items, %.0fs span)\n",
                gen_secs, ram->unique_users(), ram->unique_items(),
                ram->duration());
  }

  // ---- Conversion mode ----------------------------------------------
  const std::string convert_path = args.get_string("convert");
  const std::string save_csv_path = args.get_string("save-csv");
  if (!convert_path.empty() || !save_csv_path.empty()) {
    std::unique_ptr<TraceVectorSource> ram_source;
    TraceSource* src = stream.get();
    if (src == nullptr) {
      ram_source = std::make_unique<TraceVectorSource>(*ram);
      src = ram_source.get();
    }
    if (!convert_path.empty()) {
      t0 = Clock::now();
      const std::uint64_t n = write_trace_file(convert_path, *src);
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const TraceFile out(convert_path);
      std::printf(
          "wrote %s: %llu records in %.1fs (%.2f B/record, %llu chunks, "
          "%.1f MB)\n",
          convert_path.c_str(), static_cast<unsigned long long>(n), secs,
          out.bytes_per_record(),
          static_cast<unsigned long long>(out.header().chunk_count),
          static_cast<double>(out.file_bytes()) / 1e6);
    }
    if (!save_csv_path.empty()) {
      if (!save_csv_streaming(save_csv_path, *src)) {
        std::fprintf(stderr, "cannot write CSV '%s'\n", save_csv_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", save_csv_path.c_str());
    }
    return 0;
  }

  const auto shards = static_cast<std::size_t>(args.get_uint("shards"));
  const auto threads = static_cast<std::size_t>(args.get_uint("threads"));

  // --progress wraps whatever supply was selected in the heartbeat
  // decorator; in-RAM traces go through a TraceVectorSource view so they
  // can be decorated too (bit-identical to the Trace overload, which wraps
  // the same way internally).
  std::unique_ptr<TraceVectorSource> ram_view;
  std::unique_ptr<ProgressTraceSource> progress;
  if (args.get_bool("progress")) {
    TraceSource* inner = stream.get();
    if (inner == nullptr) {
      ram_view = std::make_unique<TraceVectorSource>(*ram);
      inner = ram_view.get();
    }
    progress = std::make_unique<ProgressTraceSource>(*inner, "replay");
  }

  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = args.get_double("bandwidth");
  replay_cfg.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  replay_cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  replay_cfg.max_prefetch_per_request = 4;
  replay_cfg.seed = trace_cfg.seed;
  replay_cfg.governor = args.get_string("governor");
  replay_cfg.stream_window =
      static_cast<std::size_t>(args.get_uint("stream-window"));

  Table table({"policy", "access time", "hit ratio", "rho", "demand jobs",
               "prefetch jobs", "throttled", "inflight hits", "backbone jobs",
               "wall s", "req/s", "peak MB", "B/user"});
  table.set_precision(4);
  for (const std::string& name : split_csv(args.get_string("policy"))) {
    const PolicyFactory factory = policy_factory(name);
    const MemoryUsage mem_before = read_memory_usage();
    t0 = Clock::now();
    ProxySimResult r;
    std::uint64_t backbone_jobs = 0;
    std::unique_ptr<TelemetryPlane> plane;
    std::unique_ptr<TelemetryFleet> fleet;
    if (shards <= 1) {
      if (telemetry_on) {
        plane = std::make_unique<TelemetryPlane>(tele_cfg);
        replay_cfg.telemetry = plane.get();
      }
      auto policy = factory();
      r = progress ? run_trace_replay(*progress, replay_cfg, *policy)
          : ram    ? run_trace_replay(*ram, replay_cfg, *policy)
                   : run_trace_replay(*stream, replay_cfg, *policy);
      replay_cfg.telemetry = nullptr;
    } else {
      ShardedReplayConfig sharded_cfg;
      sharded_cfg.stack = replay_cfg;
      sharded_cfg.num_shards = shards;
      sharded_cfg.num_threads = threads;
      sharded_cfg.backbone_bandwidth = args.get_double("backbone-bandwidth");
      sharded_cfg.backbone_latency = args.get_double("backbone-latency");
      if (telemetry_on) {
        fleet = std::make_unique<TelemetryFleet>(tele_cfg, shards);
        sharded_cfg.telemetry = fleet.get();
      }
      const ShardedReplayResult sr =
          progress ? run_sharded_replay(*progress, sharded_cfg, factory)
          : ram    ? run_sharded_replay(*ram, sharded_cfg, factory)
                   : run_sharded_replay(*stream, sharded_cfg, factory);
      r = sr.merged;
      backbone_jobs = sr.backbone.jobs();
      if (args.get_bool("per-shard-stats")) {
        std::printf("policy %s per-shard breakdown:\n", name.c_str());
        for (std::size_t s = 0; s < sr.num_shards; ++s) {
          const ShardLoadStats& load = sr.shard_load[s];
          std::printf(
              "  shard %zu: %llu requests, %llu events, mbox %llu out / "
              "%llu in\n",
              s,
              static_cast<unsigned long long>(sr.per_shard[s].requests),
              static_cast<unsigned long long>(load.events_executed),
              static_cast<unsigned long long>(load.mailbox_sent),
              static_cast<unsigned long long>(load.mailbox_received));
        }
      }
    }
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!trace_path.empty()) {
      const std::string out = suffixed_path(trace_path, name);
      const bool ok = plane ? write_chrome_trace(out, *plane)
                            : write_chrome_trace(out, *fleet);
      if (!ok) std::fprintf(stderr, "cannot write trace '%s'\n", out.c_str());
    }
    if (!series_path.empty()) {
      const std::string out = suffixed_path(series_path, name);
      const bool ok = plane ? write_timeseries_csv(out, *plane)
                            : write_timeseries_csv(out, *fleet);
      if (!ok) std::fprintf(stderr, "cannot write series '%s'\n", out.c_str());
    }
    // Runtime footprint per user: growth of the RSS high-water mark over
    // this run (per-user caches + in-flight bookkeeping + predictor). The
    // first policy row carries the cost; later rows mostly reuse freed
    // pages and report the marginal growth.
    const MemoryUsage mem_after = read_memory_usage();
    const double run_bytes_per_user =
        mem_after.peak_resident_bytes > mem_before.peak_resident_bytes
            ? static_cast<double>(mem_after.peak_resident_bytes -
                                  mem_before.peak_resident_bytes) /
                  static_cast<double>(population)
            : 0.0;
    table.add_row({r.policy, r.mean_access_time, r.hit_ratio,
                   r.server_utilization,
                   static_cast<std::int64_t>(r.demand_jobs),
                   static_cast<std::int64_t>(r.prefetch_jobs),
                   static_cast<std::int64_t>(r.throttled_prefetches),
                   static_cast<std::int64_t>(r.inflight_hits),
                   static_cast<std::int64_t>(backbone_jobs), secs,
                   static_cast<double>(r.requests) / secs,
                   static_cast<double>(mem_after.peak_resident_bytes) / 1e6,
                   run_bytes_per_user});
  }
  std::printf("\n%s\n", table.to_markdown().c_str());
  std::printf("governor: %s, supply: %s\n",
              replay_cfg.governor.empty() ? "(ungoverned)"
                                          : replay_cfg.governor.c_str(),
              ram ? "in-RAM trace" : "streamed source");
  return 0;
}
