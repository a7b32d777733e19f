// Shared engine benchmark workloads, used by both the google-benchmark
// harness (perf_engine.cpp) and the JSON trajectory recorder
// (emit_bench_json.cpp) so the two always measure the same thing.
#pragma once

#include <cstdint>
#include <functional>

#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace specpf::benchwork {

/// Schedules `events` empty actions at random times and drains the queue.
inline std::uint64_t schedule_and_run(Rng& rng, std::size_t events) {
  Simulator sim;
  for (std::size_t i = 0; i < events; ++i) {
    sim.schedule_at(rng.next_double() * 1000.0, [] {});
  }
  sim.run();
  return sim.events_executed();
}

/// Trace-replay arrival path with a trivial handler: `windows` windows of
/// 65,536 time-sorted records (pairs share an instant), each pushed to the
/// arrival stream and run to its last instant before the next is fed.
/// Returns events executed.
inline std::uint64_t stream_feed(std::size_t windows) {
  constexpr std::size_t kWindow = 65536;
  Simulator sim;
  std::uint64_t checksum = 0;
  sim.bind_arrivals([&checksum](std::uint64_t user, std::uint64_t item) {
    checksum += user ^ item;
  });
  std::uint64_t record = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    double when = 0.0;
    for (std::size_t i = 0; i < kWindow; ++i, ++record) {
      when = static_cast<double>(record / 2) * 1e-4;
      sim.push_arrival(when, record & 1023, record);
    }
    sim.run_until(when);
  }
  return sim.events_executed();
}

/// Sustained M/M/1-PS at rho = 0.7 for 2000 simulated seconds; returns jobs
/// completed.
inline std::uint64_t ps_server_throughput() {
  Simulator sim;
  PsServer server(sim, 10.0);
  Rng rng(3);
  ExponentialDist interarrival(1.0 / 7.0);
  ExponentialDist sizes(1.0);
  std::function<void()> arrive = [&] {
    server.submit(sizes.sample(rng), nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < 2000.0) {
      sim.schedule_in(dt, [&arrive] { arrive(); });
    }
  };
  sim.schedule_in(interarrival.sample(rng), [&arrive] { arrive(); });
  sim.run();
  return server.stats().completed;
}

/// Equal-size surge on a PS link: Poisson arrivals at twice the service
/// rate for 30 simulated seconds build the queue to about 3e4 jobs, which
/// then drain. Equal sizes finish in submit order, so this times the link's
/// FIFO run tier at depth (ps_server_throughput's exponential sizes time
/// the heap tier). Returns jobs completed.
inline std::uint64_t ps_server_deep_queue() {
  Simulator sim;
  PsServer server(sim, 1000.0);
  Rng rng(4);
  ExponentialDist interarrival(1.0 / 2000.0);
  std::function<void()> arrive = [&] {
    server.submit(1.0, nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < 30.0) {
      sim.schedule_in(dt, [&arrive] { arrive(); });
    }
  };
  sim.schedule_in(interarrival.sample(rng), [&arrive] { arrive(); });
  sim.run();
  return server.stats().completed;
}

/// Re-arm churn on a PS link held at `depth` jobs: every completion
/// submits one unit job from its callback, `resubmits` times in all.
/// Seeding the link with sizes 1/depth, 2/depth, ..., 1 spaces the finish
/// values 1/depth apart, so each replacement sorts behind the rest (the
/// FIFO run tier) and nothing but the link is pending. Each job then moves
/// the link's next-completion instant twice, at its departure and at its
/// replacement's arrival, which times the completion mechanism itself.
/// Returns jobs completed (depth + resubmits).
inline std::uint64_t link_rearm(std::size_t depth, std::uint64_t resubmits) {
  Simulator sim;
  PsServer server(sim, 1000.0);
  struct Churn {
    PsServer& server;
    std::uint64_t left;
    void submit(double size) {
      server.submit(size, [this](const TransferResult&) {
        if (left == 0) return;
        --left;
        submit(1.0);
      });
    }
  } churn{server, resubmits};
  for (std::size_t i = 1; i <= depth; ++i) {
    churn.submit(static_cast<double>(i) / static_cast<double>(depth));
  }
  sim.run();
  return server.stats().completed;
}

}  // namespace specpf::benchwork
