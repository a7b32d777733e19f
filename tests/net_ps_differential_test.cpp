// Differential test for the virtual-time PS server: an independent, naive
// O(n²) processor-sharing simulator (advance all remaining works between
// events) must produce identical completion times on random workloads.
// The naive reference agrees only to 1e-6, so a frozen digest table
// (ps_digests.inc) also pins the exact completion order and finish-time
// bits, including the order of jobs whose finish virtual times tie.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "net/ps_server.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

struct Arrival {
  double time;
  double size;
};

/// Reference PS: event-by-event remaining-work bookkeeping, no virtual time.
std::vector<double> naive_ps_completions(const std::vector<Arrival>& arrivals,
                                         double bandwidth) {
  struct Job {
    double remaining;
    std::size_t index;
  };
  std::vector<double> completions(arrivals.size(), -1.0);
  std::vector<Job> active;
  double now = 0.0;
  std::size_t next_arrival = 0;

  while (next_arrival < arrivals.size() || !active.empty()) {
    // Next completion among active jobs at current sharing rate.
    double next_completion = std::numeric_limits<double>::infinity();
    if (!active.empty()) {
      const double rate = bandwidth / static_cast<double>(active.size());
      double min_remaining = std::numeric_limits<double>::infinity();
      for (const Job& j : active) {
        min_remaining = std::min(min_remaining, j.remaining);
      }
      next_completion = now + min_remaining / rate;
    }
    const double next_arrival_time =
        next_arrival < arrivals.size()
            ? arrivals[next_arrival].time
            : std::numeric_limits<double>::infinity();

    if (next_arrival_time <= next_completion) {
      // Advance work to the arrival instant, then admit.
      if (!active.empty()) {
        const double rate = bandwidth / static_cast<double>(active.size());
        for (Job& j : active) j.remaining -= rate * (next_arrival_time - now);
      }
      now = next_arrival_time;
      active.push_back(Job{arrivals[next_arrival].size, next_arrival});
      ++next_arrival;
    } else {
      const double rate = bandwidth / static_cast<double>(active.size());
      for (Job& j : active) j.remaining -= rate * (next_completion - now);
      now = next_completion;
      // Retire every job whose remaining work hit zero (ties complete
      // together, matching the egalitarian server).
      for (auto it = active.begin(); it != active.end();) {
        if (it->remaining <= 1e-9 * bandwidth) {
          completions[it->index] = now;
          it = active.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return completions;
}

/// Deep-invariant sweep of the link's run, heap and job slab.
void expect_audit_clean(const PsServer& server) {
  AuditReport report;
  server.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

std::vector<double> server_ps_completions(const std::vector<Arrival>& arrivals,
                                          double bandwidth) {
  Simulator sim;
  PsServer server(sim, bandwidth);
  std::vector<double> completions(arrivals.size(), -1.0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sim.schedule_at(arrivals[i].time, [&, i] {
      server.submit(arrivals[i].size, [&completions, i](const TransferResult& r) {
        completions[i] = r.finish_time;
      });
      if (i % 32 == 0) expect_audit_clean(server);
    });
  }
  sim.run();
  expect_audit_clean(server);
  return completions;
}

class PsDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsDifferential, MatchesNaiveReferenceOnRandomWorkload) {
  Rng rng(GetParam());
  const double bandwidth = 1.0 + rng.next_double() * 9.0;
  std::vector<Arrival> arrivals;
  double t = 0.0;
  const std::size_t n = 200 + rng.next_below(300);
  for (std::size_t i = 0; i < n; ++i) {
    t += -0.2 * std::log1p(-rng.next_double());
    arrivals.push_back({t, 0.01 + rng.next_double() * 3.0});
  }
  const auto expected = naive_ps_completions(arrivals, bandwidth);
  const auto actual = server_ps_completions(arrivals, bandwidth);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_GT(actual[i], 0.0) << "job " << i << " never completed";
    EXPECT_NEAR(actual[i], expected[i], 1e-6)
        << "job " << i << " of " << n << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(PsDifferential, SimultaneousArrivalsAndEqualSizes) {
  // Adversarial ties: equal sizes arriving at identical instants.
  std::vector<Arrival> arrivals;
  for (int batch = 0; batch < 5; ++batch) {
    for (int j = 0; j < 4; ++j) {
      arrivals.push_back({batch * 0.5, 1.0});
    }
  }
  const auto expected = naive_ps_completions(arrivals, 4.0);
  const auto actual = server_ps_completions(arrivals, 4.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-6) << i;
  }
}

TEST(PsDifferential, ExtremeSizeContrast) {
  // A giant job with a stream of tiny ones riding through it.
  std::vector<Arrival> arrivals{{0.0, 100.0}};
  for (int i = 1; i <= 50; ++i) {
    arrivals.push_back({static_cast<double>(i) * 0.1, 0.01});
  }
  const auto expected = naive_ps_completions(arrivals, 2.0);
  const auto actual = server_ps_completions(arrivals, 2.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-5) << i;
  }
}

// --- frozen completion digests ----------------------------------------------
//
// One u64 FNV-1a digest per workload over the (job id, finish-time bits)
// sequence in completion order, then every ServerStats field. Any change to
// which job finishes first, or to a finish time's last bit, changes the
// table. Regenerating is deliberate (one command line):
//
//   ./build/net_ps_differential_test --gtest_also_run_disabled_tests
//       --gtest_filter='PsDigests.DISABLED_PrintDigests'
//       | grep '^{' > tests/ps_digests.inc

struct CellDigest {
  const char* cell;
  std::uint64_t digest;
};

constexpr CellDigest kFrozenDigests[] = {
#include "ps_digests.inc"
};

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Submits every arrival at its time, runs to completion, and digests the
/// completion sequence plus the server's statistics.
std::uint64_t ps_digest(const std::vector<Arrival>& arrivals,
                        double bandwidth) {
  Simulator sim;
  PsServer server(sim, bandwidth);
  Fnv1a h;
  for (const Arrival& a : arrivals) {
    sim.schedule_at(a.time, [&server, &h, size = a.size] {
      server.submit(size, [&h](const TransferResult& r) {
        h.add(r.job_id);
        h.add(r.finish_time);
      });
    });
  }
  sim.run();
  expect_audit_clean(server);
  const ServerStats stats = server.stats();
  h.add(stats.completed);
  h.add(stats.mean_sojourn);
  h.add(stats.mean_jobs_in_system);
  h.add(stats.utilization);
  h.add(stats.total_service_demand);
  return h.value();
}

std::vector<std::pair<std::string, std::uint64_t>> compute_ps_digests() {
  std::vector<std::pair<std::string, std::uint64_t>> out;

  // Equal sizes arriving in simultaneous batches that overlap in service.
  std::vector<Arrival> equal;
  for (int batch = 0; batch < 6; ++batch) {
    for (int j = 0; j < 5; ++j) equal.push_back({batch * 0.7, 1.0});
  }
  out.emplace_back("equal/simultaneous", ps_digest(equal, 4.0));

  // Poisson arrivals with exponential sizes at rho = 0.7.
  Rng exp_rng(3);
  std::vector<Arrival> exponential;
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += -std::log1p(-exp_rng.next_double()) / 7.0;
    exponential.push_back({t, -std::log1p(-exp_rng.next_double())});
  }
  out.emplace_back("exponential/rho0.7", ps_digest(exponential, 10.0));

  // Equal sizes near saturation with one job in 8 off-size, alternately
  // smaller and larger than the rest.
  Rng mixed_rng(5);
  std::vector<Arrival> mixed;
  t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    t += -std::log1p(-mixed_rng.next_double()) / 9.5;
    double size = 1.0;
    if (i % 8 == 7) size = (i / 8) % 2 == 0 ? 0.3 : 2.5;
    mixed.push_back({t, size});
  }
  out.emplace_back("equal/one-in-8-off-size", ps_digest(mixed, 10.0));

  // Crafted exact ties in finish virtual time. At t = 0 sizes 1, 3, 1 give
  // finish values 1, 3, 1: the second size-1 job ties the first but sorts
  // below the size-3 job submitted between them. The link is idle again by
  // t = 10 with V = 3, and sizes 0.5, 2, 0.5, 0.25 repeat the pattern with a
  // strictly earlier job behind the tie. Every value is exact in binary.
  const std::vector<Arrival> tie{{0.0, 1.0},   {0.0, 3.0},  {0.0, 1.0},
                                 {10.0, 0.5},  {10.0, 2.0}, {10.0, 0.5},
                                 {10.0, 0.25}};
  out.emplace_back("crafted/finish-tie", ps_digest(tie, 1.0));
  return out;
}

TEST(PsDigests, MatchFrozenTable) {
  const auto digests = compute_ps_digests();
  ASSERT_EQ(digests.size(), std::size(kFrozenDigests));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].first, kFrozenDigests[i].cell) << "row " << i;
    EXPECT_EQ(digests[i].second, kFrozenDigests[i].digest)
        << digests[i].first << ": completion order or times changed";
  }
}

TEST(PsDigests, DISABLED_PrintDigests) {
  for (const auto& [cell, digest] : compute_ps_digests()) {
    std::printf("{\"%s\", 0x%016llxULL},\n", cell.c_str(),
                static_cast<unsigned long long>(digest));
  }
}

}  // namespace
}  // namespace specpf
