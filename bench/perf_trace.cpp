// Trace-pipeline perf recorder: measures what the out-of-core .spt path
// costs and saves, with the plain chrono harness (bench/harness.hpp), and
// writes BENCH_trace.json.
//
// Legs:
//   * encode  — write_trace_file over a streamed 1M-record synthetic
//     source: records/s and payload MB/s out, plus bytes/record (the
//     on-disk compression the varint+delta format buys vs the 24-byte
//     in-RAM TraceRecord).
//   * decode  — full TraceCursor scan of that file: records/s back in.
//   * replay  — streamed-source replay vs the in-RAM vector replay over
//     an identical 300k-record workload, timed interleaved and reported
//     as their ratio (replay throughput itself is bench/e2e's); the two
//     results are verified bit-identical, so the overhead number can only
//     describe runs that agree.
//   * rss     — peak resident set of a streamed generator replay vs the
//     bytes the same trace would pin as an in-RAM vector. The streamed
//     leg runs first (peak RSS is a high-water mark, monotone within a
//     process), so the in-RAM leg cannot inflate its reading.
//
// --rss-sweep N replaces the default 4M-request rss leg with an N-request
// streamed run (no in-RAM counterpart — at N = 1e9 there isn't enough RAM,
// which is the point) and reports the measured streamed peak against the
// 24·N-byte vector floor the in-RAM path would need before event overhead.
//
// Usage: perf_trace [output.json] [--rss-sweep N]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/mem.hpp"
#include "util/parse.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace specpf;
SyntheticTraceConfig make_trace_config(std::size_t requests) {
  SyntheticTraceConfig cfg;
  cfg.num_users = 50000;
  cfg.num_requests = requests;
  cfg.request_rate = 1000.0;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.seed = 5;
  return cfg;
}

TraceReplayConfig make_replay_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 1200.0;
  cfg.cache_capacity = 8;
  cfg.max_prefetch_per_request = 4;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "BENCH_trace.json";
  std::size_t rss_sweep = 0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rss-sweep") == 0) {
      if (i + 1 == argc || !parse_exact(argv[++i], &rss_sweep) ||
          rss_sweep == 0) {
        std::fprintf(stderr, "--rss-sweep: expected positive integer\n");
        return 2;
      }
    } else if (argv[i][0] != '-' && positional++ == 0) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: perf_trace [output.json] [--rss-sweep N]\n");
      return 2;
    }
  }
  std::vector<bench::Metric> metrics;
  const char* tmp_spt = "perf_trace_tmp.spt";

  // --- rss leg first: peak RSS is a process-lifetime high-water mark, so
  // the streamed reading must be taken before anything materializes a big
  // vector. The streamed replay's peak should track the epoch window and
  // the 50k-user stack, not the request count.
  {
    const std::size_t n = rss_sweep ? rss_sweep : 4000000;
    const SyntheticTraceConfig cfg = make_trace_config(n);
    SyntheticTraceStream stream(cfg);
    const TraceReplayConfig replay_cfg = make_replay_config();
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const ProxySimResult r = run_trace_replay(stream, replay_cfg, policy);
    const double streamed_peak =
        static_cast<double>(read_memory_usage().peak_resident_bytes);
    const double in_ram_floor = 24.0 * static_cast<double>(n);
    metrics.push_back({"trace.rss.requests", static_cast<double>(n), "records"});
    metrics.push_back(
        {"trace.rss.streamed_peak_bytes", streamed_peak, "bytes"});
    metrics.push_back(
        {"trace.rss.in_ram_vector_floor_bytes", in_ram_floor, "bytes"});
    metrics.push_back({"trace.rss.in_ram_floor_over_streamed_peak",
                       in_ram_floor / streamed_peak, "x"});
    if (!rss_sweep) {
      // Small enough to also measure the in-RAM path for real: regenerate
      // the identical trace as a vector and replay it.
      const Trace trace = generate_synthetic_trace(cfg);
      ThresholdPolicy ram_policy(core::InteractionModel::kModelA);
      const ProxySimResult ram_r =
          run_trace_replay(trace, replay_cfg, ram_policy);
      if (!bench::same_result(r, ram_r)) {
        std::fprintf(stderr, "rss leg: streamed result diverged from in-RAM\n");
        return 1;
      }
      const double ram_peak =
          static_cast<double>(read_memory_usage().peak_resident_bytes);
      metrics.push_back({"trace.rss.in_ram_peak_bytes", ram_peak, "bytes"});
    }
  }

  // --- encode: stream 1M generated records straight into an .spt file.
  const SyntheticTraceConfig enc_cfg = make_trace_config(1000000);
  {
    std::uint64_t written = 0;
    const bench::Timing t = bench::time_call([&] {
      SyntheticTraceStream stream(enc_cfg);
      written = write_trace_file(tmp_spt, stream);
    });
    const TraceFile file(tmp_spt);
    const double payload_mb =
        static_cast<double>(file.header().payload_bytes) / 1e6;
    metrics.push_back(bench::rate("trace.encode.records_per_sec",
                                  static_cast<double>(written), t,
                                  "records/s"));
    metrics.push_back(
        bench::rate("trace.encode.payload_mb_per_sec", payload_mb, t, "MB/s"));
    metrics.push_back(
        {"trace.encode.bytes_per_record", file.bytes_per_record(), "bytes"});
  }

  // --- decode: full cursor scan of the file just written.
  {
    const TraceFile file(tmp_spt);
    std::uint64_t decoded = 0;
    const bench::Timing t = bench::time_call([&] {
      TraceCursor cursor(file);
      TraceRecord r;
      decoded = 0;
      while (cursor.next(&r)) ++decoded;
    });
    if (decoded != file.record_count()) {
      std::fprintf(stderr, "decode leg lost records\n");
      return 1;
    }
    metrics.push_back(bench::rate("trace.decode.records_per_sec",
                                  static_cast<double>(decoded), t,
                                  "records/s"));
  }
  std::remove(tmp_spt);

  // --- replay: streamed generator source vs in-RAM vector, identical
  // workload, timed interleaved; bit-identity is checked on the last run of
  // each leg.
  {
    const SyntheticTraceConfig cfg = make_trace_config(300000);
    const TraceReplayConfig replay_cfg = make_replay_config();
    const Trace trace = generate_synthetic_trace(cfg);
    ProxySimResult ram_r, streamed_r;
    const std::vector<bench::Timing> t = bench::time_legs(
        {[&] {
           ThresholdPolicy policy(core::InteractionModel::kModelA);
           ram_r = run_trace_replay(trace, replay_cfg, policy);
         },
         [&] {
           SyntheticTraceStream stream(cfg);
           ThresholdPolicy policy(core::InteractionModel::kModelA);
           streamed_r = run_trace_replay(stream, replay_cfg, policy);
         }});
    if (!bench::same_result(ram_r, streamed_r)) {
      std::fprintf(stderr, "streamed replay diverged from in-RAM replay\n");
      return 1;
    }
    metrics.push_back(
        bench::ratio("trace.replay.streamed_overhead", t[1], t[0]));
  }

  return bench::write_snapshot(path, metrics) ? 0 : 1;
}
