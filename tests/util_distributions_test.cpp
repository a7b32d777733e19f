#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "util/contract.hpp"
#include "util/math.hpp"

namespace specpf {
namespace {

constexpr int kSamples = 200000;

double sample_mean(const Distribution& dist, std::uint64_t seed,
                   int n = kSamples) {
  Rng rng(seed);
  KahanSum sum;
  for (int i = 0; i < n; ++i) sum.add(dist.sample(rng));
  return sum.value() / n;
}

TEST(DeterministicDist, AlwaysReturnsValue) {
  DeterministicDist dist(3.5);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(dist.sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(dist.mean(), 3.5);
}

TEST(DeterministicDist, RejectsNegative) {
  EXPECT_THROW(DeterministicDist(-1.0), ContractViolation);
}

TEST(ExponentialDist, MeanMatches) {
  ExponentialDist dist(2.5);
  EXPECT_NEAR(sample_mean(dist, 3), 2.5, 0.03);
}

TEST(ExponentialDist, VarianceIsMeanSquared) {
  ExponentialDist dist(2.0);
  Rng rng(5);
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = dist.sample(rng);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sumsq / kSamples - mean * mean;
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(ExponentialDist, RejectsNonPositiveMean) {
  EXPECT_THROW(ExponentialDist(0.0), ContractViolation);
  EXPECT_THROW(ExponentialDist(-1.0), ContractViolation);
}

TEST(BoundedParetoDist, SamplesWithinBounds) {
  BoundedParetoDist dist(1.2, 1.0, 1000.0);
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(BoundedParetoDist, EmpiricalMeanMatchesAnalytic) {
  BoundedParetoDist dist(1.5, 1.0, 100.0);
  EXPECT_NEAR(sample_mean(dist, 13, 500000) / dist.mean(), 1.0, 0.02);
}

TEST(BoundedParetoDist, ShapeOneSpecialCase) {
  BoundedParetoDist dist(1.0, 1.0, 10.0);
  // E[X] for bounded Pareto α=1 on [1,10]: ln(10)/(1 - 1/10) ≈ 2.5584.
  EXPECT_NEAR(dist.mean(), std::log(10.0) / 0.9, 1e-9);
  EXPECT_NEAR(sample_mean(dist, 17, 500000) / dist.mean(), 1.0, 0.02);
}

// --- Zipf ---

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, PmfSumsToOne) {
  const double alpha = GetParam();
  ZipfDist zipf(500, alpha);
  double total = 0.0;
  for (std::size_t i = 0; i < 500; ++i) total += zipf.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ZipfTest, PmfIsDecreasingInRank) {
  ZipfDist zipf(100, GetParam());
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_GT(zipf.pmf(i - 1), zipf.pmf(i));
  }
}

TEST_P(ZipfTest, SamplingMatchesPmf) {
  const double alpha = GetParam();
  constexpr std::size_t kN = 50;
  ZipfDist zipf(kN, alpha);
  Rng rng(23);
  std::vector<int> counts(kN, 0);
  constexpr int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t rank : {0ULL, 1ULL, 5ULL, 20ULL}) {
    const double expected = zipf.pmf(rank);
    const double observed = static_cast<double>(counts[rank]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01 + expected * 0.05)
        << "alpha=" << alpha << " rank=" << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 2.0));

TEST(ZipfDist, SingleItemAlwaysRankZero) {
  ZipfDist zipf(1, 0.9);
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.pmf(0), 1.0);
}

TEST(ZipfDist, LargeCatalogSamplesInRange) {
  ZipfDist zipf(10'000'000, 0.99);
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(zipf.sample(rng), 10'000'000u);
}

TEST(ZipfDist, RejectsBadParameters) {
  EXPECT_THROW(ZipfDist(0, 1.0), ContractViolation);
  EXPECT_THROW(ZipfDist(10, 0.0), ContractViolation);
  EXPECT_THROW(ZipfDist(10, -1.0), ContractViolation);
}

// --- Discrete / alias method ---

TEST(DiscreteDist, MatchesWeights) {
  std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  DiscreteDist dist(weights);
  Rng rng(37);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) ++counts[dist.sample(rng)];
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, weights[i] / 10.0,
                0.005);
  }
}

TEST(DiscreteDist, PmfNormalised) {
  DiscreteDist dist(std::vector<double>{5.0, 0.0, 5.0});
  EXPECT_DOUBLE_EQ(dist.pmf(0), 0.5);
  EXPECT_DOUBLE_EQ(dist.pmf(1), 0.0);
  EXPECT_DOUBLE_EQ(dist.pmf(2), 0.5);
}

TEST(DiscreteDist, ZeroWeightNeverSampled) {
  DiscreteDist dist(std::vector<double>{1.0, 0.0, 1.0});
  Rng rng(41);
  for (int i = 0; i < 100000; ++i) ASSERT_NE(dist.sample(rng), 1u);
}

TEST(DiscreteDist, SingleOutcome) {
  DiscreteDist dist(std::vector<double>{3.0});
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 0u);
}

TEST(DiscreteDist, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteDist(std::vector<double>{}), ContractViolation);
  EXPECT_THROW(DiscreteDist(std::vector<double>{0.0, 0.0}), ContractViolation);
  EXPECT_THROW(DiscreteDist(std::vector<double>{1.0, -1.0}),
               ContractViolation);
}

}  // namespace
}  // namespace specpf
