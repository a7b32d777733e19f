// Cache-plane perf/memory recorder: measures the slab-backed arena cache
// plane — resident bytes per user (via the util/mem RSS probe) under the
// million-user sweep's own workload shape, cold construction of a
// million-user fleet, protocol-op churn throughput, and an end-to-end trace
// replay — and writes BENCH_cache.json alongside the engine/stack/shard
// snapshots.
//
// The fleet footprint is measured by replaying the same synthetic
// session trace the million_user_sweep example uses (1M users, 3 requests
// per user on average, 400 pages) directly against the cache plane:
// demand admissions on misses plus a prefetch admission stream in the
// sweep's observed prefetch:demand ratio — the engine, in-flight map, and
// predictor are deliberately absent so the number isolates the caches.
//
// Usage: perf_cache_arena [output.json] [num_users]
//        (defaults: BENCH_cache.json, 1000000)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_plane.hpp"
#include "policy/policies.hpp"
#include "sim/trace_replay.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "workload/synthetic_trace.hpp"

namespace {

using namespace specpf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` repeatedly until ~0.5s elapses; returns best seconds/call.
double best_time(const std::function<void()>& body) {
  double best = 1e30;
  double total = 0.0;
  int calls = 0;
  while (total < 0.5 || calls < 3) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt < best) best = dt;
    total += dt;
    ++calls;
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

constexpr std::size_t kCapacity = 8;  // the million-user sweep's default

/// The sweep's cache-plane traffic, minus the engine: every trace record is
/// an access; misses demand-admit, and every other miss also prefetch-admits
/// a neighbour page (≈ the sweep's realised prefetch:demand job ratio).
std::uint64_t drive_sweep_workload(CachePlane& plane, const Trace& trace,
                                   std::size_t num_pages) {
  std::uint64_t checksum = 0;
  std::uint64_t misses = 0;
  for (const auto& r : trace.records()) {
    switch (plane.access(r.user, r.item)) {
      case AccessOutcome::kHitTagged:
        checksum += 3;
        break;
      case AccessOutcome::kHitUntagged:
        checksum += 2;
        break;
      case AccessOutcome::kMiss:
        ++checksum;
        plane.admit_demand(r.user, r.item);
        if ((++misses & 1) == 0) {
          plane.admit_prefetch(r.user, (r.item + 1) % num_pages);
        }
        break;
    }
  }
  return checksum;
}

/// RSS delta of construct + sweep replay, construction time, and drive
/// throughput.
struct FleetCost {
  double construct_secs = 0.0;
  double drive_secs = 0.0;
  double bytes_per_user = 0.0;
  std::uint64_t checksum = 0;
};

FleetCost measure_fleet(std::size_t num_users,
                        const Trace& trace, std::size_t num_pages) {
  CachePlaneConfig config;
  config.num_users = num_users;
  config.capacity = kCapacity;
  config.seed = 7;
  const std::size_t rss_before = read_memory_usage().resident_bytes;
  auto t0 = Clock::now();
  auto plane = make_cache_plane(CacheKind::kLru, config);
  FleetCost cost;
  cost.construct_secs = seconds_since(t0);
  t0 = Clock::now();
  cost.checksum = drive_sweep_workload(*plane, trace, num_pages);
  cost.drive_secs = seconds_since(t0);
  const std::size_t rss_after = read_memory_usage().resident_bytes;
  cost.bytes_per_user =
      rss_after > rss_before
          ? static_cast<double>(rss_after - rss_before) /
                static_cast<double>(num_users)
          : 0.0;
  return cost;
}

/// The stack's per-request cache work: an access, and on a miss a demand
/// or prefetch admission, over a rolling population — returns a checksum
/// that keeps the work observable.
constexpr std::size_t kChurnUsers = 65536;
constexpr std::size_t kChurnOps = 2000000;

std::uint64_t churn(CachePlane& plane) {
  Rng rng(42);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    const auto user = static_cast<std::uint32_t>(rng.next_below(kChurnUsers));
    const ItemId item = rng.next_below(4096);
    switch (plane.access(user, item)) {
      case AccessOutcome::kHitTagged:
        checksum += 3;
        break;
      case AccessOutcome::kHitUntagged:
        checksum += 2;
        break;
      case AccessOutcome::kMiss:
        ++checksum;
        if ((i & 3) == 0) {
          plane.admit_prefetch(user, item);
        } else {
          plane.admit_demand(user, item);
        }
        break;
    }
  }
  return checksum;
}

double bench_churn(std::uint64_t* checksum) {
  return best_time([&] {
    CachePlaneConfig config;
    config.num_users = kChurnUsers;
    config.capacity = kCapacity;
    config.seed = 7;
    auto plane = make_cache_plane(CacheKind::kLru, config);
    *checksum = churn(*plane);
  });
}

double bench_trace_replay(std::uint64_t* requests_out) {
  SyntheticTraceConfig trace_cfg;
  trace_cfg.num_users = 50000;
  trace_cfg.num_requests = 200000;
  trace_cfg.request_rate = 1000.0;
  trace_cfg.graph.num_pages = 400;
  trace_cfg.graph.out_degree = 3;
  trace_cfg.graph.exit_probability = 0.25;
  trace_cfg.seed = 5;
  const Trace trace = generate_synthetic_trace(trace_cfg);

  TraceReplayConfig replay_cfg;
  replay_cfg.bandwidth = 1200.0;
  replay_cfg.cache_capacity = kCapacity;
  replay_cfg.max_prefetch_per_request = 4;
  std::uint64_t requests = 0;
  const double secs = best_time([&] {
    ThresholdPolicy policy(core::InteractionModel::kModelA);
    const auto result = run_trace_replay(trace, replay_cfg, policy);
    requests = result.requests;
  });
  *requests_out = requests;
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_cache.json";
  const std::size_t num_users =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 1000000;
  std::vector<Metric> metrics;

  // The sweep-shaped trace the fleet measurement replays (allocated before
  // the first RSS snapshot, so it cancels out of the delta).
  constexpr std::size_t kNumPages = 400;
  SyntheticTraceConfig sweep_cfg;
  sweep_cfg.num_users = num_users;
  sweep_cfg.num_requests = 3 * num_users;
  sweep_cfg.request_rate = 10000.0;
  sweep_cfg.graph.num_pages = kNumPages;
  sweep_cfg.graph.out_degree = 3;
  sweep_cfg.graph.exit_probability = 0.25;
  sweep_cfg.graph.link_skew = 1.6;
  sweep_cfg.seed = 2001;
  const Trace sweep_trace = generate_synthetic_trace(sweep_cfg);

  // Fleet footprint and cold construction.
  const FleetCost fleet = measure_fleet(num_users, sweep_trace, kNumPages);
  if (fleet.checksum == 0) std::fprintf(stderr, "fleet replay saw nothing\n");
  metrics.push_back({"cache.fleet.users", static_cast<double>(num_users), ""});
  metrics.push_back(
      {"cache.fleet.arena_bytes_per_user", fleet.bytes_per_user, "B"});
  metrics.push_back({"cache.fleet.arena_construct_users_per_sec",
                     static_cast<double>(num_users) / fleet.construct_secs,
                     "users/s"});
  metrics.push_back({"cache.fleet.arena_sweep_ops_per_sec",
                     static_cast<double>(sweep_trace.size()) / fleet.drive_secs,
                     "ops/s"});

  // Protocol-op churn.
  std::uint64_t churn_checksum = 0;
  const double churn_secs = bench_churn(&churn_checksum);
  if (churn_checksum == 0) std::fprintf(stderr, "cache churn saw nothing\n");
  metrics.push_back({"cache.churn.arena_ops_per_sec",
                     static_cast<double>(kChurnOps) / churn_secs, "ops/s"});

  // End-to-end replay.
  std::uint64_t replay_requests = 0;
  const double replay_secs = bench_trace_replay(&replay_requests);
  metrics.push_back({"cache.trace_replay.arena_requests_per_sec",
                     static_cast<double>(replay_requests) / replay_secs,
                     "requests/s"});

  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": 1,\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                 metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str(), i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
  for (const auto& m : metrics) {
    std::printf("  %-45s %14.4g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return 0;
}
