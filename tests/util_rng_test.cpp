// RNG substrate tests: determinism, stream independence, bounded generation.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>
#include <vector>

namespace cspls::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, KnownSeedIsReproducible) {
  Xoshiro256 a(12345);
  Xoshiro256 b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro256, StateIsNeverAllZero) {
  // splitmix expansion cannot produce the all-zero fixed point.
  for (std::uint64_t seed : {0ULL, 1ULL, 0xffffffffffffffffULL}) {
    Xoshiro256 rng(seed);
    const auto st = rng.state();
    EXPECT_TRUE(st[0] || st[1] || st[2] || st[3]);
    EXPECT_NE(rng.next(), rng.next());  // it moves
  }
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(1234);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.below(kBound)];
  }
  const double expected = static_cast<double>(kDraws) / kBound;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);  // +-10%
  }
}

TEST(Xoshiro256, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Xoshiro256, ChanceMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    hits += rng.chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.25, 0.01);
}

TEST(Xoshiro256, ShuffleKeepsMultiset) {
  Xoshiro256 rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<int> orig = v;
  rng.shuffle(std::span<int>(v));
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Xoshiro256, ShuffleActuallyPermutes) {
  Xoshiro256 rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const std::vector<int> orig = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, orig);  // probability of identity is 1/50! — negligible
}

TEST(Xoshiro256, JumpChangesState) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  b.jump();
  EXPECT_NE(a.state(), b.state());
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, JumpedStreamsDoNotCollideEarly) {
  // Heuristic non-overlap check: the first outputs of sibling streams
  // share no value (2^-64 collision probability per pair).
  Xoshiro256 base(4242);
  Xoshiro256 s0 = base;
  Xoshiro256 s1 = base;
  s1.jump();
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(s0.next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(first.count(s1.next()), 0u);
  }
}

TEST(RngStreamFactory, SameStreamIsIdentical) {
  const RngStreamFactory factory(77);
  Xoshiro256 a = factory.stream(3);
  Xoshiro256 b = factory.stream(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RngStreamFactory, DifferentStreamsDiffer) {
  const RngStreamFactory factory(77);
  Xoshiro256 a = factory.stream(0);
  Xoshiro256 b = factory.stream(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngStreamFactory, StreamCreationOrderIrrelevant) {
  const RngStreamFactory factory(77);
  Xoshiro256 late = factory.stream(5);
  (void)factory.stream(2);
  Xoshiro256 again = factory.stream(5);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(late.next(), again.next());
  }
}

/// Property sweep: bounded generation is in-range for many (seed, bound)
/// combinations.
class RngBoundSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(RngBoundSweep, BelowInRangeAndHitsExtremes) {
  const auto [seed, bound] = GetParam();
  Xoshiro256 rng(seed);
  std::uint64_t lo = bound, hi = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.below(bound);
    ASSERT_LT(v, bound);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, bound - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RngBoundSweep,
    ::testing::Combine(::testing::Values(1ULL, 42ULL, 0xdeadbeefULL),
                       ::testing::Values(2ULL, 7ULL, 64ULL, 101ULL)));

}  // namespace
}  // namespace cspls::util
