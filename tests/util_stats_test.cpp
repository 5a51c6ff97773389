// Statistics substrate tests.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace cspls::util {
namespace {

TEST(Mean, KnownValues) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7}), 7.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 20.0, 1e-12);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Quantile, ClampsP) {
  const std::vector<double> xs{1, 2};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 2.0);
}

TEST(QuantileSorted, EdgeCases) {
  EXPECT_DOUBLE_EQ(quantile_sorted(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(std::vector<double>{5}, 0.99), 5.0);
}

TEST(FitLine, RecoversExactLine) {
  const std::vector<double> xs{0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * x - 1.5);
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.5, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineApproximates) {
  Xoshiro256 rng(8);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    xs.push_back(x);
    ys.push_back(2.0 * x + 1.0 + (rng.uniform01() - 0.5) * 0.01);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_NEAR(fit.intercept, 1.0, 0.05);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(FitLine, DegenerateInputs) {
  const LinearFit too_short = fit_line(std::vector<double>{1}, std::vector<double>{2});
  EXPECT_DOUBLE_EQ(too_short.slope, 0.0);
  const std::vector<double> flat{2, 2, 2};
  const std::vector<double> ys{1, 2, 3};
  const LinearFit vertical = fit_line(flat, ys);
  EXPECT_DOUBLE_EQ(vertical.slope, 0.0);  // refuses the vertical fit
}

}  // namespace
}  // namespace cspls::util
