// Order-statistics estimator tests: the mathematical core of the cluster
// simulator.
#include "sim/order_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace cspls::sim {
namespace {

TEST(EmpiricalDistribution, BasicMoments) {
  const EmpiricalDistribution d({4, 1, 3, 2});
  EXPECT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.median(), 2.5);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 4.0);
}

TEST(EmpiricalDistribution, RejectsNegativeSamples) {
  EXPECT_THROW(EmpiricalDistribution({1.0, -0.5}), std::invalid_argument);
}

TEST(EmpiricalDistribution, EmptyIsWellBehaved) {
  const EmpiricalDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.expected_min_of_k(4), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
}

TEST(EmpiricalDistribution, CdfIsAStepFunction) {
  const EmpiricalDistribution d({1, 2, 2, 4});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(3.9), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(ExpectedMinOfK, KOneIsTheMean) {
  const EmpiricalDistribution d({1, 5, 9, 13});
  EXPECT_NEAR(d.expected_min_of_k(1), d.mean(), 1e-12);
}

TEST(ExpectedMinOfK, HandComputedTwoSampleCase) {
  // Samples {1, 2}, k = 2: P(min = 1) = 3/4, P(min = 2) = 1/4 -> 1.25.
  const EmpiricalDistribution d({1, 2});
  EXPECT_NEAR(d.expected_min_of_k(2), 1.25, 1e-12);
}

TEST(ExpectedMinOfK, MonotoneNonIncreasingInK) {
  util::Xoshiro256 rng(1);
  const EmpiricalDistribution d(exponential_samples(0.1, 400, rng));
  double prev = d.expected_min_of_k(1);
  for (const std::size_t k : {2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    const double cur = d.expected_min_of_k(k);
    EXPECT_LE(cur, prev + 1e-12) << "k=" << k;
    prev = cur;
  }
}

TEST(ExpectedMinOfK, ConvergesToSampleMinimum) {
  const EmpiricalDistribution d({3, 7, 11});
  EXPECT_NEAR(d.expected_min_of_k(100000), 3.0, 1e-6);
}

TEST(ExpectedMinOfK, ConstantDistributionGivesNoParallelGain) {
  const EmpiricalDistribution d(std::vector<double>(50, 2.5));
  for (const std::size_t k : {1u, 2u, 64u, 1024u}) {
    EXPECT_NEAR(d.expected_min_of_k(k), 2.5, 1e-12);
  }
}

TEST(ExpectedMinOfK, ExponentialGivesLinearSpeedup) {
  // For Exp(lambda), E[min of k] = 1/(k*lambda): the memoryless ideal the
  // paper's CAP curves approach.  The empirical estimator must reproduce it
  // within sampling error.
  util::Xoshiro256 rng(7);
  const double lambda = 0.5;
  const EmpiricalDistribution d(exponential_samples(lambda, 20000, rng));
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    const double expected = 1.0 / (static_cast<double>(k) * lambda);
    EXPECT_NEAR(d.expected_min_of_k(k), expected, expected * 0.1) << k;
  }
}

TEST(ExpectedMinOfK, ShiftedExponentialSaturates) {
  // t0 + Exp(lambda): speedup is bounded by (t0 + 1/lambda)/t0.
  util::Xoshiro256 rng(8);
  const EmpiricalDistribution d(
      shifted_exponential_samples(1.0, 1.0, 20000, rng));
  const double t1 = d.expected_min_of_k(1);
  const double t_huge = d.expected_min_of_k(4096);
  EXPECT_NEAR(t1, 2.0, 0.1);
  EXPECT_NEAR(t_huge, 1.0, 0.05);  // converges to the shift, not to zero
  EXPECT_LT(t1 / t_huge, 2.2);     // bounded speedup
}

TEST(QuantileMinOfK, IdentityForKOne) {
  util::Xoshiro256 rng(9);
  const EmpiricalDistribution d(exponential_samples(1.0, 5000, rng));
  for (const double p : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(d.quantile_min_of_k(1, p), d.quantile(p), 1e-9);
  }
}

TEST(QuantileMinOfK, MedianOfMinShrinksWithK) {
  util::Xoshiro256 rng(10);
  const EmpiricalDistribution d(exponential_samples(1.0, 5000, rng));
  double prev = d.quantile_min_of_k(1, 0.5);
  for (const std::size_t k : {2u, 8u, 32u}) {
    const double cur = d.quantile_min_of_k(k, 0.5);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(SampleMinOfK, StaysWithinSupportAndShrinks) {
  util::Xoshiro256 rng(11);
  const EmpiricalDistribution d(exponential_samples(1.0, 2000, rng));
  double sum1 = 0.0, sum16 = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double a = d.sample_min_of_k(1, rng);
    const double b = d.sample_min_of_k(16, rng);
    EXPECT_GE(a, d.min());
    EXPECT_LE(a, d.max());
    sum1 += a;
    sum16 += b;
  }
  EXPECT_LT(sum16, sum1);
}

TEST(ExponentialSamples, MatchTheoreticalMean) {
  util::Xoshiro256 rng(12);
  const auto xs = exponential_samples(2.0, 40000, rng);
  double sum = 0.0;
  for (const double x : xs) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / static_cast<double>(xs.size()), 0.5, 0.02);
}

TEST(ExponentialSamples, RejectsBadLambda) {
  util::Xoshiro256 rng(13);
  EXPECT_THROW(exponential_samples(0.0, 10, rng), std::invalid_argument);
  EXPECT_THROW(exponential_samples(-1.0, 10, rng), std::invalid_argument);
}

/// Property: for any (k, sample size), the probability masses used by the
/// exact estimator sum to one — checked indirectly: E[min_k] of a shifted
/// dataset shifts by exactly the same amount.
class MinOfKShiftInvariance
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MinOfKShiftInvariance, ShiftEquivariance) {
  const auto [k, n] = GetParam();
  util::Xoshiro256 rng(99);
  auto xs = exponential_samples(1.0, n, rng);
  const EmpiricalDistribution base(xs);
  for (auto& x : xs) x += 10.0;
  const EmpiricalDistribution shifted(xs);
  EXPECT_NEAR(shifted.expected_min_of_k(k), base.expected_min_of_k(k) + 10.0,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinOfKShiftInvariance,
    ::testing::Combine(::testing::Values(1u, 3u, 17u, 256u),
                       ::testing::Values(10u, 101u, 1000u)));

}  // namespace
}  // namespace cspls::sim
