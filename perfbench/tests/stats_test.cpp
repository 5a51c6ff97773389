// Pins the benchmark's own arithmetic: the tail-percentile rule, failures
// counted as misses, span self time, and the max_rate_at_slo search.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(10), 0.5), 5.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(1000), 0.9), 900.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(TailRule, KeepsTheRequestedPercentileWhenTenSamplesLieBeyond) {
  const Tail t = tail(one_to(1000), 0.99);
  EXPECT_EQ(t.percentile, 0.99);
  EXPECT_EQ(t.value, 990.0);  // 991..1000 lie beyond: exactly ten
  EXPECT_EQ(t.samples, 1000u);
}

TEST(TailRule, FallsBackToTheHighestSupportedPercentile) {
  const Tail t = tail(one_to(500), 0.99);
  EXPECT_DOUBLE_EQ(t.percentile, 0.98);
  EXPECT_EQ(t.value, 490.0);  // ten samples beyond it
  const Tail t90 = tail(one_to(50), 0.9);
  EXPECT_DOUBLE_EQ(t90.percentile, 0.8);
  EXPECT_EQ(t90.value, 40.0);
}

TEST(TailRule, TinySampleReportsItsMedian) {
  const Tail t = tail(one_to(10), 0.99);
  EXPECT_EQ(t.percentile, 0.5);
  EXPECT_EQ(t.value, 5.0);
}

TEST(Misses, AFailedRequestMissesEveryLimit) {
  std::vector<double> latencies = one_to(1000);
  for (std::size_t i = 0; i < 10; ++i) latencies[i] = kMiss;  // ten failures
  EXPECT_EQ(tail(latencies, 0.99).value, 1000.0);
  latencies[10] = kMiss;  // the eleventh failure reaches the p99
  EXPECT_EQ(tail(latencies, 0.99).value, kMiss);
  EXPECT_FALSE(meets_slo(StepOutcome{kMiss, false, false}, 1e9));
}

TEST(BlockTail, IgnoresAStallConfinedToOneBlock) {
  std::vector<double> latencies;
  for (int i = 0; i < 3000; ++i) latencies.push_back(1.0 + (i % 100) * 0.01);
  EXPECT_DOUBLE_EQ(block_tail(latencies, 0.99).value, 1.98);
  // A stall delays 40 consecutive requests: the plain p99 jumps, the
  // median of the three block tails does not.
  for (int i = 100; i < 140; ++i) latencies[i] = 50.0;
  EXPECT_EQ(tail(latencies, 0.99).value, 50.0);
  EXPECT_DOUBLE_EQ(block_tail(latencies, 0.99).value, 1.98);
  // Fewer than three blocks' worth of samples: the plain tail.
  EXPECT_EQ(block_tail(std::vector<double>(latencies.begin(), latencies.begin() + 1999), 0.99).value,
            tail(std::vector<double>(latencies.begin(), latencies.begin() + 1999), 0.99).value);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      {"request", 1, 0, 1, 0.0, 10.0},
      {"a", 2, 1, 1, 1.0, 4.0},
      {"b", 3, 1, 1, 3.0, 6.0},   // overlaps a: union 1..6
      {"c", 4, 1, 1, 9.0, 12.0},  // sticks out: counts 9..10
      {"d", 5, 2, 1, 2.0, 3.0},   // grandchild: only a's self shrinks
      {"other", 6, 0, 2, 0.0, 5.0},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[5], 5.0);
}

TEST(SloSearch, FindsTheHighestRungUnderASyntheticLatencyCurve) {
  const RateLadder ladder{100.0, 1.05, 80};
  // p99 grows like an M/M/1 queue with capacity 2000 req/s.
  auto p99_at = [](double rate) { return 4.6 / (2000.0 - rate) * 1e3; };
  const double limit = 10.0;  // met while rate <= 1540 req/s
  int tested = 0;
  auto passes = [&](int rung) {
    ++tested;
    const double rate = ladder.rate(rung);
    const StepOutcome o{rate < 2000.0 ? p99_at(rate) : kMiss, rate >= 2000.0,
                        false};
    return meets_slo(o, limit);
  };
  const int best = search_max_rung(ladder.rungs, -1, passes, [] { return true; });
  ASSERT_GE(best, 0);
  EXPECT_LE(ladder.rate(best), 1540.0);
  EXPECT_GT(ladder.rate(best + 1), 1540.0);
  EXPECT_LE(tested, 7);  // bisection over 80 rungs
}

TEST(SloSearch, StartsFromAKnownPassAndStopsWhenOutOfTime) {
  auto passes = [](int rung) { return rung <= 30; };
  EXPECT_EQ(search_max_rung(64, 10, passes, [] { return true; }), 30);
  // Two tests: 37 misses, 23 passes; out of time, the best verified is 23.
  int budget = 2;
  EXPECT_EQ(search_max_rung(64, 10, passes, [&] { return budget-- > 0; }), 23);
  EXPECT_EQ(search_max_rung(64, -1, [](int) { return false; },
                            [] { return true; }),
            -1);
}

TEST(SloSearch, BacklogGrowthOrALateGeneratorFailsAStep) {
  EXPECT_TRUE(meets_slo(StepOutcome{5.0, false, false}, 10.0));
  EXPECT_FALSE(meets_slo(StepOutcome{5.0, true, false}, 10.0));
  EXPECT_FALSE(meets_slo(StepOutcome{5.0, false, true}, 10.0));
  EXPECT_FALSE(meets_slo(StepOutcome{10.5, false, false}, 10.0));
}

TEST(RateLadder, RungsAreFinerThanTheBound) {
  const RateLadder ladder{200.0, 1.04, 90};
  EXPECT_DOUBLE_EQ(ladder.rate(0), 200.0);
  EXPECT_NEAR(ladder.rate(1) / ladder.rate(0), 1.04, 1e-12);
  EXPECT_EQ(ladder.rung_at_or_below(199.0), -1);
  EXPECT_EQ(ladder.rung_at_or_below(ladder.rate(12)), 12);
}

}  // namespace
}  // namespace perfbench
