// Engine micro-benchmarks: event queue, PS server, RNG, distributions.
// Workload bodies live in engine_workloads.hpp, shared with emit_bench_json
// so the JSON trajectory and these numbers measure the same thing.
#include <benchmark/benchmark.h>

#include "engine_workloads.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace {

using namespace specpf;

void BM_EventQueue_ScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchwork::schedule_and_run(rng, events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueue_ScheduleAndRun)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_Stream_Feed(benchmark::State& state) {
  // 60 windows of 65,536 time-sorted arrivals through one arrival stream.
  constexpr std::size_t kWindows = 60;
  std::uint64_t events = 0;
  for (auto _ : state) {
    events = benchwork::stream_feed(kWindows);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Stream_Feed);

void BM_PsServer_Throughput(benchmark::State& state) {
  // Sustained M/M/1-PS at rho = 0.7: jobs processed per second of CPU.
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchwork::ps_server_throughput());
  }
}
BENCHMARK(BM_PsServer_Throughput);

void BM_Link_Rearm(benchmark::State& state) {
  // PS link held at depth N: two next-completion moves per job.
  constexpr std::uint64_t kResubmits = 200000;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    jobs = benchwork::link_rearm(static_cast<std::size_t>(state.range(0)),
                                 kResubmits);
    benchmark::DoNotOptimize(jobs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_Link_Rearm)->Arg(1)->Arg(30000);

void BM_Rng_NextDouble(benchmark::State& state) {
  Rng rng(4);
  double acc = 0.0;
  for (auto _ : state) acc += rng.next_double();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Rng_NextDouble);

void BM_Zipf_Sample(benchmark::State& state) {
  ZipfDist zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  Rng rng(5);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += zipf.sample(rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Zipf_Sample)->Arg(1000)->Arg(1000000);

void BM_Discrete_AliasSample(benchmark::State& state) {
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  Rng seed_rng(6);
  for (auto& w : weights) w = seed_rng.next_double() + 0.01;
  DiscreteDist dist(weights);
  Rng rng(7);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Discrete_AliasSample)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
