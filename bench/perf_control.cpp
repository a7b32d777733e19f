// Control-plane perf/behaviour recorder: measures what the prefetch
// governors do to network load under a flash crowd — peak smoothed queue
// depth, peak slowdown, access time, and hit ratios, governed vs
// ungoverned — plus the runtime overhead of sensing and governing, as
// ratios to the same plain replay timed interleaved through the harness
// (bench/harness.hpp), and writes BENCH_control.json alongside the other
// snapshots.
//
// The binary re-verifies the subsystem's contracts before writing
// anything:
//   1. a replay with the no-op governor is bit-identical to the
//      ungoverned replay (installing the control plane changes nothing
//      until a governor actually refuses work), and
//   2. a governed sharded run is bit-identical across 1/2/8 worker
//      threads (governor state is shard-local; setpoint exchange happens
//      at epoch barriers on the driver thread).
//
// The headline metrics record the acceptance scenario: under the flash
// crowd, the token-bucket governor must cut the peak queue depth and peak
// slowdown versus ungoverned at an equal-or-better *instant* hit ratio
// (hits served with zero wait — the overall ratio also counts hits that
// blocked on a live transfer, which is exactly what congestion inflates).
//
// Usage: perf_control [output.json]   (default: BENCH_control.json)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "policy/policies.hpp"
#include "shard/sharded_sim.hpp"
#include "sim/trace_replay.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;

Trace make_flash_trace() {
  SyntheticTraceConfig cfg;
  cfg.num_users = 30000;
  cfg.num_requests = 150000;
  cfg.request_rate = 4000.0;
  cfg.graph.num_pages = 400;
  cfg.graph.out_degree = 3;
  cfg.graph.exit_probability = 0.25;
  cfg.graph.link_skew = 1.6;
  cfg.seed = 2001;
  const double span =
      static_cast<double>(cfg.num_requests) / cfg.request_rate;
  const bool ok =
      make_scenario_modulation("flash", span, 8, &cfg.modulation);
  (void)ok;
  return generate_synthetic_trace(cfg);
}

TraceReplayConfig stack_config() {
  TraceReplayConfig cfg;
  cfg.bandwidth = 23000.0;
  cfg.cache_capacity = 8;
  cfg.predictor_kind = TraceReplayConfig::PredictorKind::kMarkov;
  cfg.max_prefetch_per_request = 4;
  cfg.seed = 2001;
  cfg.enable_load_sensor = true;
  return cfg;
}

std::unique_ptr<PrefetchPolicy> aggressive_policy() {
  return make_policy_by_name("fixed-0.05");
}

PolicyFactory aggressive_factory() {
  return [] { return make_policy_by_name("fixed-0.05"); };
}

double instant_hit_ratio(const ProxySimResult& r) {
  if (r.requests == 0) return 0.0;
  return r.hit_ratio - static_cast<double>(r.inflight_hits) /
                           static_cast<double>(r.requests);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path =
      bench::output_path(argc, argv, "perf_control", "BENCH_control.json");
  std::vector<bench::Metric> metrics;

  const Trace trace = make_flash_trace();
  TraceReplayConfig stack = stack_config();

  // Contract 1: noop governor == ungoverned, bit for bit.
  ProxySimResult ungoverned;
  {
    auto policy = aggressive_policy();
    ungoverned = run_trace_replay(trace, stack, *policy);
  }
  {
    TraceReplayConfig noop = stack;
    noop.governor = "noop";
    auto policy = aggressive_policy();
    const ProxySimResult r = run_trace_replay(trace, noop, *policy);
    if (!bench::same_result(r, ungoverned)) {
      std::fprintf(stderr, "noop-governed replay diverged from ungoverned\n");
      return 1;
    }
  }

  // Contract 2: governed sharded runs are thread-count deterministic.
  {
    ShardedReplayConfig fleet;
    fleet.stack = stack;
    fleet.stack.governor = "aimd-3";
    fleet.num_shards = 8;
    fleet.backbone_bandwidth = 46000.0;
    fleet.backbone_latency = 0.05;
    ShardedReplayResult reference;
    bool have_reference = false;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      fleet.num_threads = threads;
      const ShardedReplayResult r =
          run_sharded_replay(trace, fleet, aggressive_factory());
      if (!have_reference) {
        reference = r;
        have_reference = true;
      } else if (!bench::same_result(r.merged, reference.merged) ||
                 r.cross_shard_events != reference.cross_shard_events) {
        std::fprintf(stderr,
                     "governed 8-shard run diverged at %zu worker threads\n",
                     threads);
        return 1;
      }
    }
    metrics.push_back({"control.shard8.throttled_prefetches",
                       static_cast<double>(
                           reference.merged.throttled_prefetches),
                       "prefetches"});
  }

  // Headline: flash-crowd win per governor.
  const char* governors[] = {"token-200", "aimd-3", "conf-0.35"};
  metrics.push_back({"control.flash.ungoverned.peak_queue_depth",
                     ungoverned.peak_queue_depth, "jobs"});
  metrics.push_back({"control.flash.ungoverned.peak_slowdown",
                     ungoverned.peak_slowdown, "x"});
  metrics.push_back({"control.flash.ungoverned.mean_access_time",
                     ungoverned.mean_access_time, "s"});
  metrics.push_back({"control.flash.ungoverned.hit_ratio",
                     ungoverned.hit_ratio, "ratio"});
  metrics.push_back({"control.flash.ungoverned.instant_hit_ratio",
                     instant_hit_ratio(ungoverned), "ratio"});
  ProxySimResult token_result;
  for (const char* name : governors) {
    TraceReplayConfig governed = stack;
    governed.governor = name;
    auto policy = aggressive_policy();
    const ProxySimResult r = run_trace_replay(trace, governed, *policy);
    if (std::string(name) == "token-200") token_result = r;
    const std::string prefix = std::string("control.flash.") + name + ".";
    metrics.push_back({prefix + "peak_queue_depth", r.peak_queue_depth,
                       "jobs"});
    metrics.push_back({prefix + "peak_slowdown", r.peak_slowdown, "x"});
    metrics.push_back({prefix + "mean_access_time", r.mean_access_time, "s"});
    metrics.push_back({prefix + "hit_ratio", r.hit_ratio, "ratio"});
    metrics.push_back({prefix + "instant_hit_ratio", instant_hit_ratio(r),
                       "ratio"});
    metrics.push_back({prefix + "throttled_prefetches",
                       static_cast<double>(r.throttled_prefetches),
                       "prefetches"});
  }

  // Acceptance gate: the token bucket must cut both peaks at an
  // equal-or-better instant hit ratio.
  if (!(token_result.peak_queue_depth < ungoverned.peak_queue_depth &&
        token_result.peak_slowdown < ungoverned.peak_slowdown &&
        instant_hit_ratio(token_result) >=
            instant_hit_ratio(ungoverned))) {
    std::fprintf(stderr,
                 "token-200 failed the flash-crowd acceptance gate\n");
    return 1;
  }
  metrics.push_back(
      {"control.flash.token200_peak_depth_reduction",
       ungoverned.peak_queue_depth / token_result.peak_queue_depth, "x"});
  metrics.push_back(
      {"control.flash.token200_access_time_reduction",
       ungoverned.mean_access_time / token_result.mean_access_time, "x"});

  // Overhead of the control plane on the hot path: sensor-on and governed
  // replays against the same ungoverned/no-sensor replay.
  TraceReplayConfig plain = stack;
  plain.enable_load_sensor = false;
  TraceReplayConfig governed = stack;
  governed.governor = "token-200";
  const auto replay = [&](const TraceReplayConfig& cfg) {
    return [&trace, &cfg] {
      auto policy = aggressive_policy();
      bench::sink(run_trace_replay(trace, cfg, *policy).requests);
    };
  };
  const std::vector<bench::Timing> t =
      bench::time_legs({replay(plain), replay(stack), replay(governed)});
  metrics.push_back(bench::ratio("control.replay.sensor_overhead", t[1], t[0]));
  metrics.push_back(
      bench::ratio("control.replay.governed_overhead", t[2], t[0]));

  return bench::write_snapshot(path, metrics) ? 0 : 1;
}
