// Processor-sharing and FIFO server tests: exact sharing behaviour on
// hand-constructed scenarios, then statistical agreement with M/G/1-PS and
// Pollaczek–Khinchine closed forms (the paper's eq. 2 substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "net/fifo_server.hpp"
#include "net/ps_server.hpp"
#include "queueing/mg1_ps.hpp"
#include "queueing/mm1.hpp"
#include "util/audit.hpp"
#include "util/contract.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

/// Deep-invariant sweep of the link's run, heap and job slab.
void expect_audit_clean(const PsServer& server) {
  AuditReport report;
  server.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PsServer, SingleJobRunsAtFullBandwidth) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double finish = -1.0;
  server.submit(5.0, [&](const TransferResult& r) { finish = r.finish_time; });
  sim.run();
  EXPECT_DOUBLE_EQ(finish, 0.5);  // 5 units / 10 units-per-s
}

TEST(PsServer, TwoEqualJobsShareEqually) {
  Simulator sim;
  PsServer server(sim, 10.0);
  std::vector<double> finishes;
  server.submit(5.0, [&](const TransferResult& r) {
    finishes.push_back(r.finish_time);
  });
  server.submit(5.0, [&](const TransferResult& r) {
    finishes.push_back(r.finish_time);
  });
  sim.run();
  ASSERT_EQ(finishes.size(), 2u);
  // Each gets 5 units/s: both complete at t = 1.0.
  EXPECT_DOUBLE_EQ(finishes[0], 1.0);
  EXPECT_DOUBLE_EQ(finishes[1], 1.0);
}

TEST(PsServer, ShortJobOvertakesLongJob) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double long_finish = -1, short_finish = -1;
  server.submit(10.0, [&](const TransferResult& r) {
    long_finish = r.finish_time;
  });
  server.submit(2.0, [&](const TransferResult& r) {
    short_finish = r.finish_time;
  });
  expect_audit_clean(server);  // the short job sits in the heap
  sim.run();
  expect_audit_clean(server);
  // Both run at 5 u/s; short finishes at 0.4 having consumed 2 units; the
  // long one then speeds up to 10 u/s with 8 units left: 0.4 + 0.8 = 1.2.
  EXPECT_DOUBLE_EQ(short_finish, 0.4);
  EXPECT_DOUBLE_EQ(long_finish, 1.2);
}

TEST(PsServer, LateArrivalSlowsExistingJob) {
  Simulator sim;
  PsServer server(sim, 10.0);
  double first_finish = -1;
  server.submit(10.0, [&](const TransferResult& r) {
    first_finish = r.finish_time;
  });
  sim.schedule_at(0.5, [&] {
    server.submit(10.0, [](const TransferResult&) {});
  });
  sim.run();
  // First job: 5 units alone (0.5s), then shares: needs 5 more units at
  // 5 u/s = 1.0s; finishes at 1.5.
  EXPECT_DOUBLE_EQ(first_finish, 1.5);
}

TEST(PsServer, SojournRecordedPerJob) {
  Simulator sim;
  PsServer server(sim, 1.0);
  double sojourn = -1;
  sim.schedule_at(2.0, [&] {
    server.submit(3.0, [&](const TransferResult& r) { sojourn = r.sojourn(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sojourn, 3.0);
}

TEST(PsServer, ActiveJobsTracksOccupancy) {
  Simulator sim;
  PsServer server(sim, 1.0);
  server.submit(10.0, [](const TransferResult&) {});
  server.submit(10.0, [](const TransferResult&) {});
  EXPECT_EQ(server.active_jobs(), 2u);
  sim.run();
  EXPECT_EQ(server.active_jobs(), 0u);
}

TEST(PsServer, RejectsNonPositiveSize) {
  Simulator sim;
  PsServer server(sim, 1.0);
  EXPECT_THROW(server.submit(0.0, nullptr), ContractViolation);
}

TEST(PsServer, ManyEqualJobsFairness) {
  Simulator sim;
  PsServer server(sim, 10.0);
  std::vector<double> finishes;
  for (int i = 0; i < 10; ++i) {
    server.submit(1.0, [&](const TransferResult& r) {
      finishes.push_back(r.finish_time);
    });
  }
  sim.run();
  // All ten share: each sees 1 u/s; all complete together at t = 1.
  for (double f : finishes) EXPECT_NEAR(f, 1.0, 1e-9);
}

// --- Statistical agreement with queueing theory ---

struct MG1Case {
  double rho;
  bool exponential;  // service-time distribution
};

class PsServerQueueing : public ::testing::TestWithParam<MG1Case> {};

TEST_P(PsServerQueueing, MeanSojournMatchesMG1PS) {
  // Drive Poisson arrivals into the PS server and compare the measured mean
  // sojourn to x̄/(1-ρ) — including the *insensitivity* property (same
  // answer for deterministic and exponential service).
  const auto [rho, exponential] = GetParam();
  const double bandwidth = 10.0;
  const double mean_size = 1.0;
  const double lambda = rho * bandwidth / mean_size;

  Simulator sim;
  PsServer server(sim, bandwidth);
  Rng rng(12345);
  ExponentialDist interarrival(1.0 / lambda);
  std::unique_ptr<Distribution> sizes;
  if (exponential) {
    sizes = std::make_unique<ExponentialDist>(mean_size);
  } else {
    sizes = std::make_unique<DeterministicDist>(mean_size);
  }

  const double warmup = 200.0;
  const double horizon = 6000.0;
  std::uint64_t arrivals = 0;
  std::function<void()> arrive = [&] {
    server.submit(sizes->sample(rng), nullptr);
    if (++arrivals % 4096 == 0) expect_audit_clean(server);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
  };
  sim.schedule_in(interarrival.sample(rng), arrive);
  sim.schedule_at(warmup, [&] { server.reset_stats(); });
  sim.run_until(horizon);
  expect_audit_clean(server);

  const ServerStats stats = server.stats();
  const MG1PS theory(lambda, mean_size / bandwidth);
  ASSERT_GT(stats.completed, 1000u);
  EXPECT_NEAR(stats.mean_sojourn / theory.mean_sojourn(), 1.0, 0.08)
      << "rho=" << rho << " exp=" << exponential;
  EXPECT_NEAR(stats.utilization, rho, 0.03);
  EXPECT_NEAR(stats.mean_jobs_in_system / theory.mean_jobs_in_system(), 1.0,
              0.10);
}

INSTANTIATE_TEST_SUITE_P(
    LoadGrid, PsServerQueueing,
    ::testing::Values(MG1Case{0.3, true}, MG1Case{0.3, false},
                      MG1Case{0.6, true}, MG1Case{0.6, false},
                      MG1Case{0.8, true}, MG1Case{0.8, false}));

TEST(FifoServer, ServesInOrder) {
  Simulator sim;
  FifoServer server(sim, 10.0);
  std::vector<int> order;
  server.submit(5.0, [&](const TransferResult&) { order.push_back(1); });
  server.submit(1.0, [&](const TransferResult&) { order.push_back(2); });
  server.submit(1.0, [&](const TransferResult&) { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FifoServer, RingGrowsWhileWrappedInOrder) {
  // Advance the ring's head first, so the queue grows while it wraps.
  Simulator sim;
  FifoServer server(sim, 1.0);
  std::vector<int> order;
  int next = 0;
  auto submit = [&] {
    const int tag = next++;
    server.submit(1.0, [&order, tag](const TransferResult&) {
      order.push_back(tag);
    });
  };
  for (int i = 0; i < 12; ++i) submit();
  sim.run_until(10.5);
  for (int i = 0; i < 40; ++i) submit();
  sim.run();
  std::vector<int> expected(52);
  for (int i = 0; i < 52; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(server.active_jobs(), 0u);
}

TEST(FifoServer, QueueingDelaysAccumulate) {
  Simulator sim;
  FifoServer server(sim, 1.0);
  std::vector<double> finishes;
  for (int i = 0; i < 3; ++i) {
    server.submit(2.0, [&](const TransferResult& r) {
      finishes.push_back(r.finish_time);
    });
  }
  sim.run();
  EXPECT_EQ(finishes, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(FifoServer, MatchesMM1Sojourn) {
  const double bandwidth = 10.0, mean_size = 1.0, rho = 0.6;
  const double lambda = rho * bandwidth / mean_size;
  Simulator sim;
  FifoServer server(sim, bandwidth);
  Rng rng(777);
  ExponentialDist interarrival(1.0 / lambda);
  ExponentialDist sizes(mean_size);
  const double horizon = 6000.0;
  std::function<void()> arrive = [&] {
    server.submit(sizes.sample(rng), nullptr);
    const double dt = interarrival.sample(rng);
    if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
  };
  sim.schedule_in(interarrival.sample(rng), arrive);
  sim.schedule_at(200.0, [&] { server.reset_stats(); });
  sim.run_until(horizon);

  MM1 theory(lambda, bandwidth / mean_size);
  EXPECT_NEAR(server.stats().mean_sojourn / theory.mean_sojourn(), 1.0, 0.08);
}

TEST(FifoServer, DeterministicServiceBeatsExponentialUnderFCFS) {
  // PK: FCFS wait halves with deterministic service. PS is insensitive —
  // this contrast justifies the paper's choice of the PS model for shared
  // links with heterogeneous transfers.
  const double bandwidth = 10.0, mean_size = 1.0, rho = 0.7;
  const double lambda = rho * bandwidth / mean_size;
  auto run = [&](bool exponential) {
    Simulator sim;
    FifoServer server(sim, bandwidth);
    Rng rng(31337);
    ExponentialDist interarrival(1.0 / lambda);
    ExponentialDist exp_sizes(mean_size);
    DeterministicDist det_sizes(mean_size);
    const double horizon = 8000.0;
    std::function<void()> arrive = [&] {
      const double s =
          exponential ? exp_sizes.sample(rng) : det_sizes.sample(rng);
      server.submit(s, nullptr);
      const double dt = interarrival.sample(rng);
      if (sim.now() + dt < horizon) sim.schedule_in(dt, arrive);
    };
    sim.schedule_in(interarrival.sample(rng), arrive);
    sim.schedule_at(300.0, [&] { server.reset_stats(); });
    sim.run_until(horizon);
    return server.stats().mean_sojourn;
  };
  const double exp_sojourn = run(true);
  const double det_sojourn = run(false);
  EXPECT_LT(det_sojourn, exp_sojourn * 0.85);
}

}  // namespace
}  // namespace specpf
