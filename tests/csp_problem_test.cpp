// CSP substrate tests: PermutationProblem base behaviour via a tiny model.
#include "csp/problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace cspls::csp {
namespace {

/// Minimal concrete model: cost = number of positions where value != index
/// ("fixed-point distance" to the identity permutation).  Exercises every
/// default implementation of the base class.
class SortProblem final : public PermutationProblem {
 public:
  explicit SortProblem(std::size_t n) : PermutationProblem(iota_values(n)) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] std::string instance_description() const override {
    return "sort n=" + std::to_string(num_variables());
  }
  [[nodiscard]] std::unique_ptr<Problem> clone() const override {
    return std::make_unique<SortProblem>(*this);
  }
  [[nodiscard]] Cost full_cost() const override {
    Cost c = 0;
    const auto vals = values();
    for (std::size_t i = 0; i < vals.size(); ++i) {
      c += vals[i] != static_cast<int>(i) ? 1 : 0;
    }
    return c;
  }
  [[nodiscard]] Cost cost_on_variable(std::size_t i) const override {
    return values()[i] != static_cast<int>(i) ? 1 : 0;
  }
  [[nodiscard]] bool verify(std::span<const int> vals) const override {
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (vals[i] != static_cast<int>(i)) return false;
    }
    return vals.size() == num_variables();
  }

 private:
  static std::vector<int> iota_values(std::size_t n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }
  std::string name_ = "sort";
};

TEST(PermutationProblem, ConstructorRejectsEmpty) {
  EXPECT_THROW(SortProblem(0), std::invalid_argument);
}

TEST(PermutationProblem, RandomizeKeepsMultisetAndBindsCost) {
  SortProblem p(20);
  util::Xoshiro256 rng(1);
  const Cost cost = p.randomize(rng);
  EXPECT_EQ(cost, p.total_cost());
  EXPECT_EQ(cost, p.full_cost());
  std::vector<int> sorted(p.values().begin(), p.values().end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int>(i));
  }
}

TEST(PermutationProblem, AssignValidatesSize) {
  SortProblem p(4);
  const std::vector<int> wrong{0, 1, 2};
  EXPECT_THROW(p.assign(wrong), std::invalid_argument);
  const std::vector<int> right{3, 2, 1, 0};
  EXPECT_EQ(p.assign(right), 4);
}

TEST(PermutationProblem, SwapUpdatesCachedCost) {
  SortProblem p(4);
  const std::vector<int> start{1, 0, 2, 3};
  EXPECT_EQ(p.assign(start), 2);
  EXPECT_EQ(p.swap(0, 1), 0);  // fixes both positions
  EXPECT_EQ(p.total_cost(), 0);
  EXPECT_TRUE(p.verify(p.values()));
}

TEST(PermutationProblem, DefaultCostIfSwapMatchesCommitted) {
  SortProblem p(8);
  util::Xoshiro256 rng(3);
  p.randomize(rng);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(8));
    auto j = static_cast<std::size_t>(rng.below(8));
    if (i == j) j = (j + 1) % 8;
    const Cost probed = p.cost_if_swap(i, j);
    const auto before = std::vector<int>(p.values().begin(), p.values().end());
    const Cost committed = p.swap(i, j);
    EXPECT_EQ(probed, committed);
    // cost_if_swap must not have mutated observable state beforehand.
    p.swap(i, j);  // undo
    EXPECT_TRUE(std::equal(before.begin(), before.end(), p.values().begin()));
    p.swap(i, j);  // redo for the walk
  }
}

TEST(PermutationProblem, ResetPerturbationKeepsMultiset) {
  SortProblem p(30);
  util::Xoshiro256 rng(5);
  p.randomize(rng);
  for (double fraction : {0.0, 0.1, 0.5, 1.0}) {
    const Cost cost = p.reset_perturbation(fraction, rng);
    EXPECT_EQ(cost, p.full_cost());
    EXPECT_EQ(cost, p.total_cost());
    std::vector<int> sorted(p.values().begin(), p.values().end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      ASSERT_EQ(sorted[i], static_cast<int>(i));
    }
  }
}

TEST(PermutationProblem, ResetPerturbationActuallyPerturbs) {
  SortProblem p(40);
  util::Xoshiro256 rng(7);
  p.randomize(rng);
  const std::vector<int> before(p.values().begin(), p.values().end());
  p.reset_perturbation(0.5, rng);
  const std::vector<int> after(p.values().begin(), p.values().end());
  EXPECT_NE(before, after);
}

TEST(PermutationProblem, CloneIsIndependent) {
  SortProblem p(10);
  util::Xoshiro256 rng(9);
  p.randomize(rng);
  auto clone = p.clone();
  const Cost clone_cost = clone->total_cost();
  const std::vector<int> clone_vals(clone->values().begin(),
                                    clone->values().end());
  p.reset_perturbation(1.0, rng);  // mutate the original heavily
  EXPECT_EQ(clone->total_cost(), clone_cost);
  EXPECT_TRUE(std::equal(clone_vals.begin(), clone_vals.end(),
                         clone->values().begin()));
}

TEST(PermutationProblem, DefaultTuningHintsAreSane) {
  SortProblem p(10);
  const TuningHints hints = p.tuning();
  EXPECT_GT(hints.freeze_loc_min, 0u);
  EXPECT_GE(hints.reset_fraction, 0.0);
  EXPECT_LE(hints.reset_fraction, 1.0);
}

TEST(IsPermutationOf, AcceptsAndRejects) {
  const std::vector<int> canon{1, 2, 3, 3};
  EXPECT_TRUE(is_permutation_of(std::vector<int>{3, 1, 3, 2}, canon));
  EXPECT_FALSE(is_permutation_of(std::vector<int>{3, 1, 2, 2}, canon));
  EXPECT_FALSE(is_permutation_of(std::vector<int>{1, 2, 3}, canon));
  EXPECT_TRUE(is_permutation_of(std::vector<int>{}, std::vector<int>{}));
}

TEST(Cost, InfiniteSentinelIsLarge) {
  EXPECT_GT(kInfiniteCost, Cost{1} << 62);
}

// --- SwapScan::feed vs the per-candidate consider() loop ------------------

struct ScanResult {
  std::size_t best_j;
  Cost best_cost;
  std::size_t ties;
  std::array<std::uint64_t, 4> rng_state;
};

ScanResult run_consider(std::size_t n, std::span<const Cost> cand,
                        std::size_t skip, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  SwapScan scan(n);
  for (std::size_t j = 0; j < cand.size(); ++j) {
    if (j == skip) continue;
    scan.consider(j, cand[j], rng);
  }
  return {scan.best_j, scan.best_cost, scan.ties, rng.state()};
}

ScanResult run_feed(std::size_t n, std::span<const Cost> cand,
                    std::size_t skip, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  SwapScan scan(n);
  scan.feed(0, cand, skip, rng);
  return {scan.best_j, scan.best_cost, scan.ties, rng.state()};
}

TEST(SwapScanFeed, MatchesConsiderOnRandomCandidates) {
  util::Xoshiro256 rng(0xFEED);
  // Small cost ranges force heavy ties, so every reservoir draw is checked.
  for (const std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 31u, 64u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<Cost> cand(n);
      for (auto& c : cand) {
        c = static_cast<Cost>(rng.below(round % 2 ? 3 : 1000));
      }
      const std::size_t skip = rng.below(n + 1);  // n == skip nothing
      if (skip < n) cand[skip] = kInfiniteCost;
      const auto seed = 0x5EED + static_cast<std::uint64_t>(round);
      const auto want = run_consider(n, cand, skip, seed);
      const auto got = run_feed(n, cand, skip, seed);
      EXPECT_EQ(got.best_j, want.best_j);
      EXPECT_EQ(got.best_cost, want.best_cost);
      EXPECT_EQ(got.ties, want.ties);
      EXPECT_EQ(got.rng_state, want.rng_state) << "RNG stream diverged";
    }
  }
}

TEST(SwapScanFeed, SkippedSentinelDoesNotTieAgainstInfiniteBest) {
  // Every candidate is the sentinel: with skip passed, the one at `skip`
  // must not tie with the initial best or consume an RNG draw, while the
  // other eight tie among themselves exactly as the consider() loop does.
  const std::size_t n = 9;
  const std::vector<Cost> cand(n, kInfiniteCost);
  const std::size_t skip = 4;
  const auto want = run_consider(n, cand, skip, 123);
  const auto got = run_feed(n, cand, skip, 123);
  EXPECT_EQ(got.best_j, want.best_j);
  EXPECT_EQ(got.best_cost, want.best_cost);
  EXPECT_EQ(got.ties, want.ties);
  EXPECT_EQ(got.ties, n - 1);
  EXPECT_EQ(got.rng_state, want.rng_state);
}

TEST(SwapScanFeed, BaseOffsetAddressesCandidatesCorrectly) {
  // Feeding a window starting at base_j must report absolute indices.
  const std::size_t n = 20;
  std::vector<Cost> cand(8, 100);
  cand[5] = 1;  // base 7 + offset 5 => j = 12
  util::Xoshiro256 rng(7);
  SwapScan scan(n);
  scan.feed(7, std::span<const Cost>(cand), n, rng);
  EXPECT_EQ(scan.best_j, 12u);
  EXPECT_EQ(scan.best_cost, 1);
  EXPECT_EQ(scan.ties, 1u);
}

}  // namespace
}  // namespace cspls::csp
