// specpf_bench — one measurement per process, one JSON line on stdout.
//
//   specpf_bench <mode> --workload W --seed N --inputs DIR [--scale F]
//
// Modes:
//   describe    echo the workload's configuration
//   prepare     generate and validate the cached input file (untimed)
//   untraced    one timed repetition through the library's entry point
//   traced      one traced repetition (per-layer times) plus the isolated
//               PS-link replay and the steady_clock cost
//   cache       the isolated cache-plane replay (fresh process for RSS)
//   shard-pair  alternating ShardedSim(S=1) / run_trace_replay pairs on
//               steady, asserted bit-identical
//   obs-pair    alternating telemetry-on / telemetry-off pairs on flash,
//               asserted bit-identical
//
// bench/e2e/run drives these, one fresh process per repetition, and turns
// their lines into the benchmark's result.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "isolated.hpp"
#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "probes.hpp"
#include "traced.hpp"
#include "util/mem.hpp"
#include "workloads.hpp"

namespace {

using namespace specpf;
using namespace specpf::bench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 2001;
  std::string inputs = ".";
  double scale = 1.0;
  int pairs = 3;
};

template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--inputs") {
      a.inputs = value;
    } else if (flag == "--scale") {
      a.scale = parse_number<double>(flag, value);
      if (!(a.scale > 0.0 && a.scale <= 1.0)) {
        throw std::invalid_argument("--scale must be in (0, 1]");
      }
    } else if (flag == "--pairs") {
      a.pairs = parse_number<int>(flag, value);
      if (a.pairs < 1) throw std::invalid_argument("--pairs must be >= 1");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

/// Builds one flat JSON object. Doubles print with 17 significant digits:
/// the simulated metrics must compare exactly across runs.
class Json {
 public:
  Json& add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& add(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& add(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& hex(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return raw(key, buf);
  }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
    return *this;
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

double peak_rss_mb() {
  return static_cast<double>(read_memory_usage().peak_resident_bytes) / 1e6;
}

/// Lowers the kernel's high-water mark (VmHWM) to the current RSS, so the
/// peak read after a repetition excludes what ran before it.
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
  }
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  ProxySimResult result;
  std::uint64_t digest = 0;
  std::uint64_t obs_rows = 0;
};

/// One timed call into the library: run_trace_replay for unsharded
/// workloads, the ShardedSim constructor + run() for sharded ones.
Rep run_untraced(const Workload& w, Inputs& in, bool telemetry) {
  Rep rep;
  if (w.sharded()) {
    const ShardedReplayConfig config = w.sharded_config();
    const PolicyFactory factory = policy_factory(w);
    const std::int64_t t0 = now_ns();
    const TraceFile file(in.path());
    TraceCursor cursor(file);
    ShardedSim sim(cursor, config, factory);
    const std::int64_t t1 = now_ns();
    const ShardedReplayResult result = sim.run();
    const std::int64_t t2 = now_ns();
    rep.wall_s = seconds(t2 - t0);
    rep.setup_s = seconds(t1 - t0);
    rep.result = result.merged;
    rep.digest = digest(result);
    return rep;
  }
  TraceReplayConfig config = w.replay;
  TelemetryPlane plane;
  DivergenceDetector detector;
  if (telemetry) {
    config.telemetry = &plane;
    config.divergence = &detector;
  }
  const std::unique_ptr<PrefetchPolicy> policy = make_policy_by_name(w.policy);
  SetupProbe probe(in.source());
  const std::int64_t t0 = now_ns();
  rep.result = run_trace_replay(probe, config, *policy);
  const std::int64_t t1 = now_ns();
  rep.wall_s = seconds(t1 - t0);
  rep.setup_s = seconds(probe.second_reset_ns() - t0);
  rep.digest = digest(rep.result);
  rep.obs_rows = plane.series().recorded();
  return rep;
}

/// One end-to-end repetition, bracketed by the host-speed reference.
void untraced_repetition(const Workload& w, Inputs& in) {
  std::uint64_t sink = 0;
  const double ref_before = host_reference_s(&sink);
  reset_peak_rss();
  const Rep rep = run_untraced(w, in, w.telemetry);
  const double peak_mb = peak_rss_mb();
  const double ref_after = host_reference_s(&sink);
  const double records = static_cast<double>(in.records());
  Json()
      .add("mode", std::string("untraced"))
      .add("workload", w.name)
      .add("records", in.records())
      .add("wall_s", rep.wall_s)
      .add("setup_s", rep.setup_s)
      .add("replay_rps", records / (rep.wall_s - rep.setup_s))
      .add("peak_rss_mb", peak_mb)
      .add("host_ref_s", ref_before + ref_after)
      .add("sim_link_util", rep.result.server_utilization)
      .add("sim_access_time_s", rep.result.mean_access_time)
      .add("sim_access_p99_s", rep.result.access_time_p99)
      .add("sim_hit_ratio", rep.result.hit_ratio)
      .add("sim_requests", rep.result.requests)
      .hex("digest", rep.digest)
      .hex("ref_sink", sink)
      .print();
}

void print_traced(const Workload& w, const TracedRun& run) {
  Json j;
  j.add("mode", std::string("traced"))
      .add("workload", w.name)
      .add("wall_s", run.wall_s)
      .add("covered_s", run.covered_s)
      .hex("digest", run.digest);
  for (const auto& [name, value] : run.metrics) j.add(name.c_str(), value);
  if (!w.sharded()) {
    const PsIsolated ps = ps_isolated(run.submissions, w.replay.bandwidth,
                                      w.replay.item_size);
    j.add("net.ps_isolated_ns_per_job", ps.ns_per_job)
        .add("ps_completed", ps.completed);
  }
  std::uint64_t sink = 0;
  j.add("trace.timer_ns", timer_cost_ns(&sink)).hex("timer_sink", sink);
  j.print();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Alternating A/B pairs (A first on even pairs, B first on odd ones);
/// both sides must produce the same digest every time. Reports the A/B
/// ratio of median walls as `ratio_name` and B's median wall as
/// `base_name`.
template <typename A, typename B>
Json run_pairs(const std::string& mode, const char* ratio_name,
               const char* base_name, int pairs, A&& run_a, B&& run_b) {
  std::vector<double> a_walls;
  std::vector<double> b_walls;
  std::uint64_t reference = 0;
  bool identical = true;
  for (int i = 0; i < 2 * pairs; ++i) {
    const bool a_turn = (i % 2 == 0) == (i / 2 % 2 == 0);
    const Rep rep = a_turn ? run_a() : run_b();
    (a_turn ? a_walls : b_walls).push_back(rep.wall_s);
    if (i == 0) reference = rep.digest;
    identical = identical && rep.digest == reference;
  }
  Json j;
  j.add("mode", mode)
      .add(ratio_name, median(a_walls) / median(b_walls))
      .add(base_name, median(b_walls))
      .add("pairs", static_cast<std::uint64_t>(pairs))
      .add("identical", std::string(identical ? "yes" : "no"))
      .hex("digest", reference);
  return j;
}

int run(const Args& a) {
  if (a.mode == "shard-pair") {
    const Workload w = make_workload("steady", a.seed, a.scale);
    Inputs in(w, a.inputs);
    Workload one = w;
    one.shards = 1;
    run_pairs(
        a.mode, "shard.one_shard_overhead", "shard.one_shard_base_s", a.pairs,
        [&] {
          // ShardedSim at S = 1 over the same streamed source.
          Rep rep;
          const ShardedReplayConfig config = one.sharded_config();
          const std::int64_t t0 = now_ns();
          ShardedSim sim(in.source(), config, policy_factory(one));
          const ShardedReplayResult result = sim.run();
          rep.wall_s = seconds(now_ns() - t0);
          rep.digest = digest(result.merged);
          return rep;
        },
        [&] { return run_untraced(w, in, false); })
        .print();
    return 0;
  }
  if (a.mode == "obs-pair") {
    const Workload w = make_workload("flash", a.seed, a.scale);
    Inputs in(w, a.inputs);
    std::uint64_t rows = 0;
    Json j = run_pairs(
        a.mode, "obs.overhead", "obs.base_s", a.pairs,
        [&] {
          const Rep rep = run_untraced(w, in, true);
          rows = rep.obs_rows;
          return rep;
        },
        [&] { return run_untraced(w, in, false); });
    j.add("obs.rows", rows).print();
    return 0;
  }

  const Workload w = make_workload(a.workload, a.seed, a.scale);
  if (a.mode == "describe") {
    std::printf("%s\n", describe(w).c_str());
    return 0;
  }
  if (a.mode == "prepare") {
    prepare_input(w, a.inputs);
    Json().add("mode", a.mode).add("workload", w.name).print();
    return 0;
  }
  Inputs in(w, a.inputs);
  if (a.mode == "untraced") {
    untraced_repetition(w, in);
    return 0;
  }
  if (a.mode == "traced") {
    print_traced(w, w.sharded() ? traced_sharded(w, in)
                                : traced_replay(w, in));
    return 0;
  }
  if (a.mode == "cache") {
    const CacheIsolated c = cache_isolated(w, in);
    Json()
        .add("mode", a.mode)
        .add("workload", w.name)
        .add("cache.access_ns", c.access_ns)
        .add("cache.bytes_per_user", c.bytes_per_user)
        .hex("sink", c.sink)
        .print();
    return 0;
  }
  throw std::invalid_argument("unknown mode '" + a.mode + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "specpf_bench: %s\n", e.what());
    return 1;
  }
}
