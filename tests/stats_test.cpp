#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"
#include "stats/time_weighted.hpp"
#include "util/rng.hpp"

namespace specpf {
namespace {

TEST(RunningStats, MatchesNaiveMoments) {
  RunningStats stats;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.std_error(), 0.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, left, right;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0;
    all.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(1e9 + (i % 2));
  EXPECT_NEAR(stats.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(stats.variance(), 0.25025, 1e-3);
}

TEST(LogHistogram, QuantileSpansDecades) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(1.0);     // 2^0 bucket
  for (int i = 0; i < 1000; ++i) h.add(1024.0);  // 2^10 bucket
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 1.0);
  EXPECT_LE(median, 2048.0);
  EXPECT_GT(h.quantile(0.9), 512.0);
  EXPECT_LT(h.quantile(0.1), 3.0);
}

TEST(StudentT, KnownQuantiles) {
  // Classic table values, two-sided 95%.
  EXPECT_NEAR(student_t_quantile(1, 0.95), 12.706, 0.01);
  EXPECT_NEAR(student_t_quantile(5, 0.95), 2.571, 0.005);
  EXPECT_NEAR(student_t_quantile(10, 0.95), 2.228, 0.005);
  EXPECT_NEAR(student_t_quantile(30, 0.95), 2.042, 0.005);
  // Large dof approaches the normal 1.96.
  EXPECT_NEAR(student_t_quantile(10000, 0.95), 1.960, 0.005);
}

TEST(StudentT, NinetyAndNinetyNine) {
  EXPECT_NEAR(student_t_quantile(10, 0.90), 1.812, 0.005);
  EXPECT_NEAR(student_t_quantile(10, 0.99), 3.169, 0.01);
}

TEST(TInterval, ContainsTrueMeanForGaussianData) {
  Rng rng(11);
  int covered = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> samples;
    for (int i = 0; i < 20; ++i) {
      // Sum of 12 uniforms - 6: approx N(0,1).
      double z = -6.0;
      for (int k = 0; k < 12; ++k) z += rng.next_double();
      samples.push_back(5.0 + z);
    }
    if (t_interval(samples, 0.95).contains(5.0)) ++covered;
  }
  // 95% nominal coverage; allow generous slack for 200 trials.
  EXPECT_GE(covered, 180);
}

TEST(TInterval, DegenerateCases) {
  const auto ci = t_interval(std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_DOUBLE_EQ(ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.start(0.0, 2.0);
  tw.update(10.0, 4.0);   // value 2 for 10s
  tw.update(20.0, 0.0);   // value 4 for 10s
  // Average over [0, 40]: (2*10 + 4*10 + 0*20)/40 = 1.5.
  EXPECT_DOUBLE_EQ(tw.average_until(40.0), 1.5);
}

TEST(TimeWeighted, WindowRestart) {
  TimeWeighted tw;
  tw.start(0.0, 1.0);
  tw.update(5.0, 3.0);
  tw.start(5.0, 3.0);  // truncate: new origin
  EXPECT_DOUBLE_EQ(tw.average_until(10.0), 3.0);
}

TEST(TimeWeighted, ZeroWindowIsZero) {
  TimeWeighted tw;
  tw.start(1.0, 5.0);
  EXPECT_DOUBLE_EQ(tw.average_until(1.0), 0.0);
}

}  // namespace
}  // namespace specpf
