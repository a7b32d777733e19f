// Sharded million-user sweep: the multi-core scaling demo for the sharded
// runtime. Partitions a million-user synthetic trace across S regional
// shards (one slab engine + flat-hash data plane each), runs the
// conservative epoch loop at several worker-thread counts, and reports
// wall-clock scaling plus the cross-shard backbone load the paper's
// threshold rule is supposed to keep in check.
//
// Results are bit-deterministic: every thread count must produce the same
// merged metrics, and the binary verifies that before printing.
//
//   ./sharded_million_user_sweep --users 1000000 --requests 3000000
//       --shards 8 --threads 1,2,4,8 --policy threshold-a
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
#include "util/argparse.hpp"
#include "util/mem.hpp"
#include "util/table.hpp"
#include "workload/progress_source.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

/// Fresh-instance factory over the library's name→policy mapping; unknown
/// names fall back to threshold-a.
PolicyFactory policy_factory(std::string name) {
  if (!make_policy_by_name(name)) {
    std::fprintf(stderr, "unknown policy '%s', using threshold-a\n",
                 name.c_str());
    name = "threshold-a";
  }
  return [name] { return make_policy_by_name(name); };
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("sharded_million_user_sweep",
                 "Multi-core scaling of the sharded million-user replay");
  args.add_flag("users", "1000000", "population size");
  args.add_flag("requests", "3000000", "total trace length");
  args.add_flag("rate", "10000", "aggregate request rate (req/s)");
  args.add_flag("pages", "400", "site size (pages)");
  args.add_flag("cache", "8", "per-user cache capacity (pages)");
  args.add_flag("bandwidth", "2500", "per-region link bandwidth (pages/s)");
  args.add_flag("shards", "8", "number of regional shards");
  args.add_flag("threads", "1,2,4,8",
                "comma-separated worker-thread counts to sweep");
  args.add_flag("policy", "threshold-a",
                "policy: none|threshold-a|threshold-b|fixed-<theta>|"
                "topk-<k>|adaptive-<w>|qos-<rho>");
  args.add_flag("backbone-bandwidth", "40000",
                "per-region origin uplink bandwidth (pages/s)");
  args.add_flag("backbone-latency", "0.05",
                "cross-shard latency = epoch lookahead (s)");
  args.add_flag("seed", "2001", "random seed");
  args.add_flag("trace", "",
                "export a Chrome trace-event JSON (Perfetto-loadable) for "
                "the first thread-count run");
  args.add_flag("timeseries", "",
                "export the sampled gauge time series as CSV for the first "
                "thread-count run");
  args.add_flag("sample-interval", "0.25",
                "telemetry gauge sampling cadence (sim-seconds)");
  args.add_flag("per-shard-stats", "false",
                "print the per-shard event/mailbox breakdown per run");
  args.add_flag("stream", "false",
                "stream the synthetic generator straight into the shard "
                "feeder (no in-RAM trace; RSS stays bounded)");
  args.add_flag("trace-file", "",
                "replay a binary .spt trace via the mmap'd cursor instead "
                "of generating one");
  args.add_flag("progress", "false",
                "print a wall-clock heartbeat (records fed, req/s, peak RSS) "
                "to stderr while each run streams");
  if (!args.parse(argc, argv)) return 1;

  const std::string trace_path = args.get_string("trace");
  const std::string series_path = args.get_string("timeseries");
  TelemetryConfig tele_cfg;
  tele_cfg.sample_interval = args.get_double("sample-interval");
  // Checked before any trace is built: ShardedSim's contracts would reject
  // these only after generation.
  const auto num_shards =
      static_cast<std::size_t>(args.get_positive_uint("shards"));
  const double backbone_bandwidth =
      args.get_positive_double("backbone-bandwidth");
  const double backbone_latency = args.get_positive_double("backbone-latency");

  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = static_cast<std::size_t>(args.get_uint("users"));
  trace_cfg.num_requests = static_cast<std::size_t>(args.get_uint("requests"));
  trace_cfg.request_rate = args.get_double("rate");
  trace_cfg.graph.num_pages = static_cast<std::size_t>(args.get_uint("pages"));
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.graph.link_skew = 1.6;
  trace_cfg.seed = args.get_uint("seed");

  // Request supply: in-RAM trace (default), streamed generator, or a
  // binary .spt trace through the mmap cursor. The streamed forms feed the
  // shard engines epoch-by-epoch at bounded RSS; every thread-count run
  // rewinds and replays the identical record sequence.
  std::unique_ptr<Trace> ram;
  std::unique_ptr<TraceFile> file;
  std::unique_ptr<TraceSource> stream;
  std::uint64_t population = trace_cfg.num_users;
  auto t0 = Clock::now();
  const std::string file_path = args.get_string("trace-file");
  if (!file_path.empty()) {
    file = std::make_unique<TraceFile>(file_path);
    stream = std::make_unique<TraceCursor>(*file);
    population = file->header().unique_users;
    std::printf("trace file %s: %llu records, %llu users, %.0fs span\n",
                file_path.c_str(),
                static_cast<unsigned long long>(file->record_count()),
                static_cast<unsigned long long>(file->header().unique_users),
                file->duration());
  } else if (args.get_bool("stream")) {
    stream = std::make_unique<SyntheticTraceStream>(trace_cfg);
    std::printf("streaming generator: %zu requests over %zu users (never "
                "materialized)\n",
                trace_cfg.num_requests, trace_cfg.num_users);
  } else {
    std::printf("generating %zu requests over %zu users...\n",
                trace_cfg.num_requests, trace_cfg.num_users);
    ram = std::make_unique<Trace>(generate_synthetic_trace(trace_cfg));
    population = ram->unique_users();
    std::printf("  %.1fs (%zu unique users, %.0fs span)\n",
                std::chrono::duration<double>(Clock::now() - t0).count(),
                ram->unique_users(), ram->duration());
  }

  // --progress wraps the selected supply in the heartbeat decorator
  // (in-RAM traces through a TraceVectorSource view — bit-identical to the
  // Trace overload, which wraps the same way internally).
  std::unique_ptr<TraceVectorSource> ram_view;
  std::unique_ptr<ProgressTraceSource> progress;
  if (args.get_bool("progress")) {
    TraceSource* inner = stream.get();
    if (inner == nullptr) {
      ram_view = std::make_unique<TraceVectorSource>(*ram);
      inner = ram_view.get();
    }
    progress = std::make_unique<ProgressTraceSource>(*inner, "sharded-replay");
  }

  ShardedReplayConfig cfg;
  cfg.stack.bandwidth = args.get_double("bandwidth");
  cfg.stack.cache_capacity = static_cast<std::size_t>(args.get_uint("cache"));
  cfg.stack.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.stack.max_prefetch_per_request = 4;
  cfg.stack.seed = trace_cfg.seed;
  cfg.num_shards = num_shards;
  cfg.backbone_bandwidth = backbone_bandwidth;
  cfg.backbone_latency = backbone_latency;
  const PolicyFactory factory = policy_factory(args.get_string("policy"));

  const std::vector<std::uint64_t> thread_counts =
      args.get_list<std::uint64_t>("threads");

  Table table({"threads", "wall s", "req/s", "speedup", "epochs",
               "cross-shard", "backbone rho", "access time", "hit ratio",
               "peak MB", "B/user"});
  table.set_precision(4);
  double base_secs = 0.0;
  ShardedReplayResult reference;
  bool have_reference = false;
  bool deterministic = true;
  for (std::size_t threads : thread_counts) {
    cfg.num_threads = threads;
    // Telemetry records on the first thread-count run only; it is pure
    // observation, so the later runs it skips still reproduce the same
    // merged results (which the determinism check below verifies).
    std::unique_ptr<TelemetryFleet> fleet;
    const bool telemetry_on =
        (!trace_path.empty() || !series_path.empty()) && !have_reference;
    if (telemetry_on) {
      fleet = std::make_unique<TelemetryFleet>(tele_cfg, cfg.num_shards);
      cfg.telemetry = fleet.get();
    }
    const MemoryUsage mem_before = read_memory_usage();
    t0 = Clock::now();
    const ShardedReplayResult r =
        progress ? run_sharded_replay(*progress, cfg, factory)
        : ram    ? run_sharded_replay(*ram, cfg, factory)
                 : run_sharded_replay(*stream, cfg, factory);
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    cfg.telemetry = nullptr;
    if (telemetry_on && !trace_path.empty() &&
        !write_chrome_trace(trace_path, *fleet)) {
      std::fprintf(stderr, "cannot write trace '%s'\n", trace_path.c_str());
    }
    if (telemetry_on && !series_path.empty() &&
        !write_timeseries_csv(series_path, *fleet)) {
      std::fprintf(stderr, "cannot write series '%s'\n", series_path.c_str());
    }
    if (args.get_bool("per-shard-stats")) {
      std::printf("threads %zu per-shard breakdown:\n", threads);
      for (std::size_t s = 0; s < r.num_shards; ++s) {
        const ShardLoadStats& load = r.shard_load[s];
        std::printf("  shard %zu: %llu requests, %llu events, mbox %llu out "
                    "/ %llu in\n",
                    s,
                    static_cast<unsigned long long>(r.per_shard[s].requests),
                    static_cast<unsigned long long>(load.events_executed),
                    static_cast<unsigned long long>(load.mailbox_sent),
                    static_cast<unsigned long long>(load.mailbox_received));
      }
    }
    // Fleet footprint per user: growth of the RSS high-water mark over this
    // run (the first thread-count row carries the cost; later rows reuse
    // freed pages and report marginal growth).
    const MemoryUsage mem_after = read_memory_usage();
    const double run_bytes_per_user =
        mem_after.peak_resident_bytes > mem_before.peak_resident_bytes
            ? static_cast<double>(mem_after.peak_resident_bytes -
                                  mem_before.peak_resident_bytes) /
                  static_cast<double>(population)
            : 0.0;
    if (!have_reference) {
      base_secs = secs;
      reference = r;
      have_reference = true;
    } else if (r.merged.mean_access_time != reference.merged.mean_access_time ||
               r.merged.requests != reference.merged.requests ||
               r.backbone.jobs() != reference.backbone.jobs()) {
      deterministic = false;
    }
    table.add_row({static_cast<std::int64_t>(threads), secs,
                   static_cast<double>(r.merged.requests) / secs,
                   base_secs / secs, static_cast<std::int64_t>(r.epochs),
                   static_cast<std::int64_t>(r.cross_shard_events),
                   r.backbone.utilization, r.merged.mean_access_time,
                   r.merged.hit_ratio,
                   static_cast<double>(mem_after.peak_resident_bytes) / 1e6,
                   run_bytes_per_user});
  }
  std::printf("\n%s\n", table.to_markdown().c_str());
  std::printf("%zu shards, policy=%s, "
              "determinism across thread counts: %s\n",
              cfg.num_shards, args.get_string("policy").c_str(),
              deterministic ? "OK (bit-identical)" : "FAILED");
  return deterministic ? 0 : 1;
}
