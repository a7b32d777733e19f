// Telemetry-plane perf recorder: measures what observability costs the
// replay hot loop, with the plain chrono harness (bench/harness.hpp), and
// writes BENCH_obs.json.
//
// Three legs over an identical 50k-user markov replay, timed interleaved
// and reported as ratios to the first (replay throughput itself is
// bench/e2e's):
//   * baseline — telemetry pointer null (the shipping default),
//   * enabled  — a full TelemetryPlane installed (gauges, sampling, span
//     tracing),
//   * disabled — telemetry pointer null again, timed after the enabled
//     leg in every round, so the gate compares two independent
//     measurements of the null-hook path bracketing the run that
//     exercised telemetry.
//
// The CI gate (--check-obs-overhead) fails when disabled/baseline exceeds
// 2%: the null-telemetry hooks must stay free. The enabled overhead is
// recorded as a trajectory metric but not gated (it is allowed to cost a
// few percent — it does real work). The legs also re-verify the purity
// contract end to end: all three must produce bit-identical results.
//
// Usage: perf_obs [output.json] [--check-obs-overhead]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/telemetry.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;

Trace make_bench_trace() {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 50000;
  trace_cfg.num_requests = 200000;
  trace_cfg.request_rate = 1000.0;
  trace_cfg.graph.num_pages = 400;
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.seed = 5;
  return generate_synthetic_trace(trace_cfg);
}

TraceReplayConfig make_replay_config() {
  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = 1200.0;
  replay_cfg.cache_capacity = 8;
  replay_cfg.max_prefetch_per_request = 4;
  return replay_cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "BENCH_obs.json";
  bool check_overhead = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-obs-overhead") == 0) {
      check_overhead = true;
    } else if (argv[i][0] != '-' && positional++ == 0) {
      path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_obs [output.json] [--check-obs-overhead]\n");
      return 2;
    }
  }
  std::vector<bench::Metric> metrics;

  const Trace trace = make_bench_trace();
  const TraceReplayConfig base_cfg = make_replay_config();

  // One replay leg; when `enabled`, a fresh TelemetryPlane per call (the
  // per-run setup cost is part of what "enabled" costs).
  ProxySimResult baseline_r, enabled_r, disabled_r;
  const auto leg = [&](bool enabled, ProxySimResult* out) {
    return [&base_cfg, &trace, enabled, out] {
      TraceReplayConfig cfg = base_cfg;
      TelemetryPlane plane;
      if (enabled) cfg.telemetry = &plane;
      ThresholdPolicy policy(core::InteractionModel::kModelA);
      *out = run_trace_replay(trace, cfg, policy);
    };
  };
  const std::vector<bench::Timing> t =
      bench::time_legs({leg(false, &baseline_r), leg(true, &enabled_r),
                        leg(false, &disabled_r)});

  // Purity contract, re-proven on the bench workload: telemetry on or off
  // must not change a single simulated number.
  if (!bench::same_result(baseline_r, enabled_r) ||
      !bench::same_result(baseline_r, disabled_r)) {
    std::fprintf(stderr, "telemetry changed simulation results\n");
    return 1;
  }

  const bench::Metric disabled_overhead =
      bench::ratio("obs.trace_replay.disabled_overhead", t[2], t[0]);
  metrics.push_back(disabled_overhead);
  metrics.push_back(
      bench::ratio("obs.trace_replay.enabled_overhead", t[1], t[0]));

  // Microbenches for the two hot primitives, so a regression names the
  // primitive and not just the end-to-end loop. bench::clobber() in every
  // iteration keeps each span/row an observable store, so the loop cannot
  // fold into one.
  {
    SpanTracer spans(TelemetryPlane::kSpanCapacity);
    constexpr std::size_t kSpans = 1 << 20;
    const bench::Timing span_t = bench::time_call([&] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        spans.record(SpanTracer::SpanKind::kDemandFetch,
                     static_cast<double>(i), static_cast<double>(i) + 0.5, 1,
                     i);
        bench::clobber();
      }
    });
    metrics.push_back(bench::rate("obs.spans.records_per_sec",
                                  static_cast<double>(kSpans), span_t,
                                  "ops/s"));
  }
  {
    TelemetryRegistry reg;
    for (int g = 0; g < 12; ++g) {
      reg.register_gauge("bench.gauge." + std::to_string(g));
    }
    TimeSeriesRecorder rec;
    rec.configure(reg.gauge_count(), TelemetryPlane::kSeriesCapacity, 0.25);
    constexpr std::size_t kRows = 1 << 18;
    const bench::Timing row_t = bench::time_call([&] {
      for (std::size_t i = 0; i < kRows; ++i) {
        rec.record(static_cast<double>(i), reg.gauge_values());
        bench::clobber();
      }
    });
    metrics.push_back(bench::rate("obs.recorder.rows_per_sec",
                                  static_cast<double>(kRows), row_t,
                                  "rows/s"));
  }

  if (!bench::write_snapshot(path, metrics)) return 1;

  // 2% tolerance on the ratio of medians: the disabled path is the same
  // machine code as the baseline apart from untaken null tests, so anything
  // beyond timer noise means a hook leaked real work onto the null path.
  if (check_overhead && disabled_overhead.value > 1.02) {
    std::fprintf(stderr,
                 "disabled-telemetry overhead %.3fx exceeds 1.02x budget\n",
                 disabled_overhead.value);
    return 1;
  }
  return 0;
}
