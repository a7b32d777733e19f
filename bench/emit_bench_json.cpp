// Perf-trajectory recorder: runs the engine + proxy-sim benchmarks through
// the plain chrono harness (bench/harness.hpp, no google-benchmark
// dependency) and writes the results as JSON so every PR can snapshot
// BENCH_engine.json and the perf history stays diffable.
//
// Usage: emit_bench_json [output.json]   (default: BENCH_engine.json)
#include <string>
#include <vector>

#include "engine_workloads.hpp"
#include "harness.hpp"
#include "policy/policies.hpp"
#include "sim/proxy_sim.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace specpf;
  const char* path =
      bench::output_path(argc, argv, "emit_bench_json", "BENCH_engine.json");
  std::vector<bench::Metric> metrics;

  const std::size_t kSizes[] = {1024, 16384, 131072};
  for (std::size_t events : kSizes) {
    Rng rng(1);
    const bench::Timing t = bench::time_call(
        [&] { bench::sink(benchwork::schedule_and_run(rng, events)); });
    const std::string base =
        "engine.schedule_and_run." + std::to_string(events);
    const double n = static_cast<double>(events);
    metrics.push_back(bench::rate(base + ".events_per_sec", n, t, "events/s"));
    metrics.push_back(
        bench::duration(base + ".ns_per_event", 1e9 / n, t, "ns"));
  }

  // The replay driver's arrival path: 60 windows of 65,536 time-sorted
  // records through one arrival stream.
  std::uint64_t streamed = 0;
  const bench::Timing stream = bench::time_call(
      [&] { streamed = benchwork::stream_feed(60); });
  metrics.push_back(bench::rate("engine.stream_feed.events_per_sec",
                                static_cast<double>(streamed), stream,
                                "events/s"));

  std::uint64_t ps_jobs = 0;
  const bench::Timing ps =
      bench::time_call([&] { ps_jobs = benchwork::ps_server_throughput(); });
  metrics.push_back(bench::rate("ps_server.ops_per_sec",
                                static_cast<double>(ps_jobs), ps, "jobs/s"));

  std::uint64_t deep_jobs = 0;
  const bench::Timing deep =
      bench::time_call([&] { deep_jobs = benchwork::ps_server_deep_queue(); });
  metrics.push_back(bench::rate("ps_server.deep_queue_jobs_per_sec",
                                static_cast<double>(deep_jobs), deep,
                                "jobs/s"));

  // The link's completion mechanism alone, at depth 1 and at the ~3e4-job
  // crest a flash crowd builds.
  for (const std::size_t depth : {std::size_t{1}, std::size_t{30000}}) {
    std::uint64_t jobs = 0;
    const bench::Timing t = bench::time_call(
        [&] { jobs = benchwork::link_rearm(depth, 200000); });
    metrics.push_back(bench::rate(
        "engine.link_rearm." + std::to_string(depth) + ".jobs_per_sec",
        static_cast<double>(jobs), t, "jobs/s"));
  }

  // The generative driver's only timing; the trace replay is bench/e2e's.
  ProxySimConfig config;
  config.num_users = 8;
  config.duration = 300.0;
  config.warmup = 30.0;
  config.seed = 11;
  std::uint64_t requests = 0;
  const bench::Timing proxy = bench::time_call([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    requests = run_proxy_sim(config, policy).requests;
  });
  metrics.push_back(bench::rate("proxy_sim.requests_per_sec",
                                static_cast<double>(requests), proxy,
                                "requests/s"));

  return bench::write_snapshot(path, metrics) ? 0 : 1;
}
