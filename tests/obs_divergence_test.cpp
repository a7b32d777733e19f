// DivergenceDetector trend tests on constructed analytic trajectories —
// the three regimes the detector exists to separate, driven by hand-fed
// recorder rows with known shapes:
//
//   * ρ < 1: an elevated transient that drains exponentially must read
//     stable (the drain-ratio test beats the elevated test);
//   * ρ ≈ 1: a sawtooth plateau around the elevated level — no drain, no
//     sustained growth — must read metastable and never latch divergence;
//   * ρ > 1: flat noise floor, then linear growth from a known t_g — must
//     latch divergent with an onset estimate within two sample intervals
//     of t_g, and the latch must survive a later drain.
//
// Plus the aggregation/wiring contracts: worst-signal-wins across watched
// gauges, watch_plane() attachment by gauge name on a sealed plane, the
// settle-time cutoff, the min-samples gate, and the config's check().
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/divergence.hpp"
#include "obs/telemetry.hpp"
#include "util/contract.hpp"

namespace specpf {
namespace {

constexpr double kInterval = 0.25;

/// Feeds one value-per-row into gauge 0 at the default cadence, calling
/// evaluate() after every row (the online usage pattern), and returns the
/// final verdict.
StabilityVerdict feed(DivergenceDetector& det, TimeSeriesRecorder& rec,
                      const std::vector<double>& values, double t0 = 0.0) {
  std::vector<double> row(rec.num_gauges(), 0.0);
  StabilityVerdict v = StabilityVerdict::kStable;
  for (std::size_t i = 0; i < values.size(); ++i) {
    row[0] = values[i];
    rec.record(t0 + kInterval * static_cast<double>(i), row);
    v = det.evaluate();
  }
  return v;
}

TEST(DivergenceDetector, DecayingTransientReadsStable) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/1, /*capacity=*/512, kInterval);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", det.config().depth_level);

  // Queue depth 40·exp(-t/4): starts well above the elevated level but
  // drains monotonically — the ρ < 1 shape after a burst.
  std::vector<double> traj;
  for (int i = 0; i < 120; ++i) {
    traj.push_back(40.0 * std::exp(-kInterval * i / 4.0));
  }
  EXPECT_EQ(feed(det, rec, traj), StabilityVerdict::kStable);
  EXPECT_LT(det.onset_time(), 0.0);
  EXPECT_TRUE(det.onset_signal().empty());
}

TEST(DivergenceDetector, SawtoothPlateauReadsMetastableWithoutLatching) {
  TimeSeriesRecorder rec;
  rec.configure(1, 512, kInterval);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", det.config().depth_level);

  // Elevated sawtooth around 10 (level is 8): every other step dips 15%,
  // beyond the 10% tolerance, so no growth run ever sustains; the last
  // value never falls under drain_ratio · window-peak either. ρ ≈ 1: the
  // queue neither empties nor provably grows.
  std::vector<double> traj;
  for (int i = 0; i < 160; ++i) traj.push_back(i % 2 == 0 ? 10.0 : 8.5);
  std::vector<double> row(1, 0.0);
  for (std::size_t i = 0; i < traj.size(); ++i) {
    row[0] = traj[i];
    rec.record(kInterval * static_cast<double>(i), row);
    // Never divergent at any point along the plateau — a latch here would
    // poison every later verdict.
    EXPECT_NE(det.evaluate(), StabilityVerdict::kDivergent) << "row " << i;
  }
  EXPECT_EQ(det.verdict(), StabilityVerdict::kMetastable);
  EXPECT_LT(det.onset_time(), 0.0);
}

TEST(DivergenceDetector, LinearGrowthLatchesDivergentNearOnset) {
  TimeSeriesRecorder rec;
  rec.configure(1, 512, kInterval);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", det.config().depth_level);

  // Low sawtooth noise floor (dips break any spurious run), then linear
  // growth at 1 job/s from t_g — the empirical ρ > 1 signature.
  const int growth_start = 80;
  const double t_g = kInterval * growth_start;
  std::vector<double> traj;
  for (int i = 0; i < growth_start; ++i) {
    traj.push_back(i % 2 == 0 ? 2.0 : 1.6);
  }
  for (int i = growth_start; i < growth_start + 120; ++i) {
    traj.push_back(1.6 + 1.0 * kInterval * (i - growth_start));
  }
  EXPECT_EQ(feed(det, rec, traj), StabilityVerdict::kDivergent);
  ASSERT_GE(det.onset_time(), 0.0);
  EXPECT_NEAR(det.onset_time(), t_g, 2.0 * kInterval);
  EXPECT_EQ(det.onset_signal(), "link.depth_ewma");
  EXPECT_GT(det.peak(0), det.config().depth_level);

  // The latch is final: a full drain afterwards must not downgrade the
  // verdict (an aborted run was still provably unstable while it grew).
  std::vector<double> drain;
  for (int i = 0; i < 80; ++i) drain.push_back(0.5);
  const double t_end = kInterval * static_cast<double>(traj.size());
  EXPECT_EQ(feed(det, rec, drain, t_end), StabilityVerdict::kDivergent);
  EXPECT_NEAR(det.onset_time(), t_g, 2.0 * kInterval);
}

TEST(DivergenceDetector, WorstSignalWinsAcrossGauges) {
  TimeSeriesRecorder rec;
  rec.configure(/*num_gauges=*/2, /*capacity=*/512, kInterval);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "shard0/link.depth_ewma", det.config().depth_level);
  det.watch(rec, 1, "shard1/link.depth_ewma", det.config().depth_level);
  ASSERT_EQ(det.num_signals(), 2u);

  // Gauge 0 drains; gauge 1 grows past the level. Fleet verdict = worst.
  std::vector<double> row(2, 0.0);
  for (int i = 0; i < 120; ++i) {
    row[0] = 20.0 * std::exp(-kInterval * i / 4.0);
    row[1] = i % 2 == 0 && i < 40 ? 1.0
                                  : 0.8 + 0.8 * kInterval * (i >= 40 ? i - 40 : 0);
    rec.record(kInterval * i, row);
    det.evaluate();
  }
  EXPECT_EQ(det.verdict(), StabilityVerdict::kDivergent);
  EXPECT_EQ(det.signal_verdict(0), StabilityVerdict::kStable);
  EXPECT_EQ(det.signal_verdict(1), StabilityVerdict::kDivergent);
  EXPECT_EQ(det.onset_signal(), "shard1/link.depth_ewma");
}

TEST(DivergenceDetector, SettleTimeSuppressesColdStartTransient) {
  // The same growth ramp twice: without a settle window it latches (the
  // cold-start transient looks like divergence); with settle_time past the
  // ramp it reads stable. This is the spurious-latch class the field
  // exists to prevent.
  auto run = [](double settle) {
    TimeSeriesRecorder rec;
    rec.configure(1, 512, kInterval);
    DivergenceDetector det;
    DivergenceConfig cfg;
    cfg.settle_time = settle;
    det.configure(cfg);
    det.watch(rec, 0, "link.depth_ewma", cfg.depth_level);
    std::vector<double> traj;
    for (int i = 0; i < 48; ++i) traj.push_back(1.0 + 0.3 * i);  // warmup ramp
    for (int i = 0; i < 80; ++i) traj.push_back(i % 2 == 0 ? 4.0 : 3.3);
    return feed(det, rec, traj);
  };
  EXPECT_EQ(run(0.0), StabilityVerdict::kDivergent);
  EXPECT_EQ(run(48 * kInterval), StabilityVerdict::kStable);
}

TEST(DivergenceDetector, MinSamplesGatesEarlyVerdicts) {
  TimeSeriesRecorder rec;
  rec.configure(1, 512, kInterval);
  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch(rec, 0, "link.depth_ewma", det.config().depth_level);

  // Steep growth, but fewer rows than min_samples: no verdict yet.
  std::vector<double> traj;
  for (std::size_t i = 0; i + 1 < det.config().min_samples; ++i) {
    traj.push_back(10.0 + 5.0 * static_cast<double>(i));
  }
  EXPECT_EQ(feed(det, rec, traj), StabilityVerdict::kStable);
}

TEST(DivergenceDetector, WatchPlaneAttachesRegisteredGaugesOnly) {
  TelemetryConfig cfg;
  cfg.sample_interval = kInterval;
  TelemetryPlane plane(cfg);
  TelemetryRegistry& reg = plane.registry();
  const auto g_depth = reg.register_gauge("link.depth_ewma", "jobs");
  reg.register_gauge("link.queue_depth", "jobs");  // not divergence-relevant
  const auto g_util = reg.register_gauge("link.util_ewma", "ratio");
  double depth = 0.0;
  plane.set_gauge_source([&, g_depth, g_util](TelemetryRegistry& r) {
    r.set_gauge(g_depth, depth);
    r.set_gauge(g_util, 0.2);
  });
  plane.seal();

  DivergenceDetector det;
  det.configure(DivergenceConfig{});
  det.watch_plane(plane, "shard0/");
  // Two of the six candidate names are registered; the raw queue-depth
  // gauge is not a candidate, and the origin.* names are absent.
  ASSERT_EQ(det.num_signals(), 2u);
  EXPECT_EQ(det.signal_name(0), "shard0/link.depth_ewma");
  EXPECT_EQ(det.signal_name(1), "shard0/link.util_ewma");

  // Drive the plane through a growth ramp; the detector reads the sealed
  // recorder directly.
  for (int i = 0; i < 120; ++i) {
    depth = i < 40 ? (i % 2 == 0 ? 1.0 : 0.8)
                   : 0.8 + 0.6 * kInterval * (i - 40);
    plane.sample_now(kInterval * i);
    det.evaluate();
  }
  EXPECT_EQ(det.verdict(), StabilityVerdict::kDivergent);
  EXPECT_EQ(det.onset_signal(), "shard0/link.depth_ewma");
  EXPECT_EQ(det.signal_verdict(1), StabilityVerdict::kStable);  // util at 0.2
}

TEST(DivergenceConfig, CheckNamesTheFirstFieldOutOfRange) {
  EXPECT_EQ(DivergenceConfig{}.check(), "");
  const auto message = [](auto mutate) {
    DivergenceConfig cfg;
    mutate(cfg);
    return cfg.check();
  };
  EXPECT_EQ(message([](DivergenceConfig& c) { c.window = 3; }).rfind(
                "window: ", 0),
            0u);
  EXPECT_EQ(message([](DivergenceConfig& c) { c.min_growth_run = 1; })
                .rfind("min_growth_run: ", 0),
            0u);
  EXPECT_EQ(message([](DivergenceConfig& c) {
              c.slope_threshold = std::nan("");
            }).rfind("slope_threshold: ", 0),
            0u);
  EXPECT_EQ(message([](DivergenceConfig& c) { c.drain_ratio = 1.5; })
                .rfind("drain_ratio: ", 0),
            0u);
  // The first bad field wins, in declaration order.
  EXPECT_EQ(message([](DivergenceConfig& c) {
              c.window = 0;
              c.settle_time = -1.0;
            }).rfind("window: ", 0),
            0u);

  DivergenceConfig bad;
  bad.min_samples = 2;
  EXPECT_THROW(bad.validate(), ContractViolation);
  DivergenceDetector det;
  EXPECT_THROW(det.configure(bad), ContractViolation);
}

}  // namespace
}  // namespace specpf
