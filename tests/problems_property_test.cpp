// Registry-wide property suite: every model must satisfy the Problem
// contract — exact incremental accounting, verifier/cost agreement,
// permutation preservation, clone independence, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/adaptive_search.hpp"
#include "csp/scalar_path.hpp"
#include "problems/registry.hpp"
#include "util/rng.hpp"

namespace cspls::problems {
namespace {

using csp::Cost;

/// Sizes small enough that a full property sweep stays fast but large
/// enough to exercise the incremental paths (diagonals, equation overlaps,
/// shared pairs...).
std::size_t property_size(const std::string& name) {
  static const std::map<std::string, std::size_t> sizes = {
      {"costas", 9},         {"all-interval", 14}, {"perfect-square", 5},
      {"magic-square", 6},   {"queens", 12},       {"langford", 8},
      {"partition", 16},     {"alpha", 26},
  };
  return sizes.at(name);
}

class ProblemContract : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<csp::Problem> make() const {
    return make_problem(GetParam(), property_size(GetParam()), 3);
  }
};

TEST_P(ProblemContract, MetadataIsCoherent) {
  auto p = make();
  EXPECT_EQ(p->name(), GetParam());
  EXPECT_FALSE(p->instance_description().empty());
  EXPECT_GT(p->num_variables(), 1u);
}

TEST_P(ProblemContract, RandomizePreservesValueMultiset) {
  auto p = make();
  util::Xoshiro256 rng(1);
  p->randomize(rng);
  std::vector<int> first(p->values().begin(), p->values().end());
  std::sort(first.begin(), first.end());
  for (int trial = 0; trial < 20; ++trial) {
    p->randomize(rng);
    std::vector<int> again(p->values().begin(), p->values().end());
    std::sort(again.begin(), again.end());
    ASSERT_EQ(first, again);
  }
}

TEST_P(ProblemContract, RandomizeBindsExactCost) {
  auto p = make();
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Cost cost = p->randomize(rng);
    ASSERT_EQ(cost, p->total_cost());
    ASSERT_EQ(cost, p->full_cost());
    ASSERT_GE(cost, 0);
  }
}

TEST_P(ProblemContract, ProbeEqualsCommitEqualsFullRecompute) {
  auto p = make();
  util::Xoshiro256 rng(3);
  p->randomize(rng);
  const std::size_t n = p->num_variables();
  for (int step = 0; step < 800; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(n));
    auto j = static_cast<std::size_t>(rng.below(n));
    if (i == j) j = (j + 1) % n;
    const Cost probed = p->cost_if_swap(i, j);
    const Cost committed = p->swap(i, j);
    ASSERT_EQ(probed, committed) << GetParam() << " step " << step;
    ASSERT_EQ(committed, p->full_cost()) << GetParam() << " step " << step;
    ASSERT_EQ(committed, p->total_cost());
  }
}

TEST_P(ProblemContract, ProbeDoesNotMutateObservableState) {
  auto p = make();
  util::Xoshiro256 rng(4);
  p->randomize(rng);
  const std::size_t n = p->num_variables();
  const std::vector<int> before(p->values().begin(), p->values().end());
  const Cost cost_before = p->total_cost();
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(n));
    auto j = static_cast<std::size_t>(rng.below(n));
    if (i == j) j = (j + 1) % n;
    (void)p->cost_if_swap(i, j);
  }
  EXPECT_TRUE(std::equal(before.begin(), before.end(), p->values().begin()));
  EXPECT_EQ(p->total_cost(), cost_before);
  EXPECT_EQ(p->full_cost(), cost_before);
}

TEST_P(ProblemContract, CostOnVariableIsNonNegativeAndZeroAtSolution) {
  auto p = make();
  auto params = core::Params::from_hints(p->tuning(), p->num_variables());
  params.max_restarts = 200;
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng(5);
  const auto result = engine.solve(*p, rng);
  ASSERT_TRUE(result.solved) << GetParam();
  for (std::size_t i = 0; i < p->num_variables(); ++i) {
    // At a zero-cost configuration no variable may carry blame (except
    // models that project the global cost uniformly — still zero here).
    ASSERT_EQ(p->cost_on_variable(i), 0) << GetParam() << " var " << i;
  }
  // And on random configurations blame is never negative.
  for (int trial = 0; trial < 10; ++trial) {
    p->randomize(rng);
    for (std::size_t i = 0; i < p->num_variables(); ++i) {
      ASSERT_GE(p->cost_on_variable(i), 0);
    }
  }
}

TEST_P(ProblemContract, SolvedMeansVerifiedAndViceVersa) {
  auto p = make();
  auto params = core::Params::from_hints(p->tuning(), p->num_variables());
  params.max_restarts = 200;
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng(6);
  const auto result = engine.solve(*p, rng);
  ASSERT_TRUE(result.solved) << GetParam();
  EXPECT_TRUE(p->verify(result.solution)) << GetParam();
  // verify is an independent checker: a perturbed solution must not pass
  // while costing zero, on any model.
  auto broken = result.solution;
  util::Xoshiro256 rng2(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto i = static_cast<std::size_t>(rng2.below(broken.size()));
    auto j = static_cast<std::size_t>(rng2.below(broken.size()));
    if (i == j) j = (j + 1) % broken.size();
    std::swap(broken[i], broken[j]);
    const Cost cost = p->assign(broken);
    ASSERT_EQ(cost == 0, p->verify(broken)) << GetParam();
  }
}

TEST_P(ProblemContract, ResetPerturbationKeepsContractInvariants) {
  auto p = make();
  util::Xoshiro256 rng(8);
  p->randomize(rng);
  std::vector<int> multiset(p->values().begin(), p->values().end());
  std::sort(multiset.begin(), multiset.end());
  for (const double fraction : {0.05, 0.2, 0.8}) {
    const Cost cost = p->reset_perturbation(fraction, rng);
    ASSERT_EQ(cost, p->total_cost());
    ASSERT_EQ(cost, p->full_cost());
    std::vector<int> again(p->values().begin(), p->values().end());
    std::sort(again.begin(), again.end());
    ASSERT_EQ(multiset, again) << GetParam();
  }
}

TEST_P(ProblemContract, CloneIsDeepAndEquivalent) {
  auto p = make();
  util::Xoshiro256 rng(9);
  p->randomize(rng);
  auto clone = p->clone();
  ASSERT_EQ(clone->total_cost(), p->total_cost());
  ASSERT_TRUE(std::equal(p->values().begin(), p->values().end(),
                         clone->values().begin()));
  // Mutating the original leaves the clone untouched...
  const Cost clone_cost = clone->total_cost();
  p->reset_perturbation(1.0, rng);
  ASSERT_EQ(clone->total_cost(), clone_cost);
  // ...and the clone's incremental structures are fully alive.
  const std::size_t n = clone->num_variables();
  util::Xoshiro256 rng2(10);
  for (int step = 0; step < 100; ++step) {
    const auto i = static_cast<std::size_t>(rng2.below(n));
    auto j = static_cast<std::size_t>(rng2.below(n));
    if (i == j) j = (j + 1) % n;
    const Cost committed = clone->swap(i, j);  // sequence before full_cost
    ASSERT_EQ(committed, clone->full_cost());
  }
}

TEST_P(ProblemContract, AssignRoundTripsThroughValues) {
  auto p = make();
  util::Xoshiro256 rng(11);
  p->randomize(rng);
  const std::vector<int> snapshot(p->values().begin(), p->values().end());
  const Cost cost = p->total_cost();
  p->randomize(rng);
  const Cost rebound = p->assign(snapshot);
  EXPECT_EQ(rebound, cost);
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(),
                         p->values().begin()));
}

TEST_P(ProblemContract, EngineIsDeterministicOnThisModel) {
  auto a = make();
  auto b = make();
  auto params = core::Params::from_hints(a->tuning(), a->num_variables());
  params.max_restarts = 5;
  params.restart_limit = std::min<std::uint64_t>(params.restart_limit, 20'000);
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng_a(12);
  util::Xoshiro256 rng_b(12);
  const auto ra = engine.solve(*a, rng_a);
  const auto rb = engine.solve(*b, rng_b);
  EXPECT_EQ(ra.stats.iterations, rb.stats.iterations) << GetParam();
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(ra.solution, rb.solution);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ProblemContract,
                         ::testing::ValuesIn(problem_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- Kernel hooks vs the scalar reference path -------------------------------
//
// The kernels' bulk overrides must be invisible: on every kernel, every size
// (odd ones straddle the costas scan's lane boundaries), every seed, the
// kernel must produce byte-identical bulk costs, the same chosen swap
// (winner, cost, tie count) AND leave the reservoir RNG at the same stream
// position as csp::ScalarPathProblem, which runs the same model through the
// per-variable virtuals — one stray draw would silently fork every
// downstream decision.
TEST(KernelScalarEquivalence, RandomSweepAcrossKernelsAndOddSizes) {
  // At least one size per kernel whose variable count is not a multiple of
  // eight (perfect-square size is the quadtree split count: 4 -> n=13,
  // 6 -> n=19, 8 -> n=25, and 0 is Duijvestijn-21; langford size n -> 2n
  // variables).
  const std::map<std::string, std::vector<std::size_t>> sweep_sizes = {
      {"costas", {7, 9}},        {"all-interval", {11, 14}},
      {"perfect-square", {4, 6, 8, 0}}, {"magic-square", {5, 6}},
      {"queens", {11, 13}},      {"langford", {7, 9}},
      {"partition", {12, 20}},   {"alpha", {26}},
  };
  for (const auto& name : problem_names()) {
    for (const std::size_t size : sweep_sizes.at(name)) {
      for (std::uint64_t seed = 101; seed <= 103; ++seed) {
        csp::ScalarPathProblem reference(make_problem(name, size, 3));
        auto kernel = make_problem(name, size, 3);
        util::Xoshiro256 rng_reference(seed);
        util::Xoshiro256 rng_kernel(seed);
        util::Xoshiro256 driver(seed ^ 0xD21BE7);

        const Cost c0_reference = reference.randomize(rng_reference);
        const Cost c0_kernel = kernel->randomize(rng_kernel);
        ASSERT_EQ(c0_reference, c0_kernel) << name << " size=" << size;

        const std::size_t n = reference.num_variables();
        std::vector<Cost> costs_reference(n);
        std::vector<Cost> costs_kernel(n);
        for (int step = 0; step < 50; ++step) {
          reference.cost_on_all_variables(costs_reference);
          kernel->cost_on_all_variables(costs_kernel);
          ASSERT_EQ(costs_reference, costs_kernel)
              << name << " size=" << size << " seed=" << seed
              << " step=" << step;

          const auto x = static_cast<std::size_t>(driver.below(n));
          std::size_t bj_reference = n;
          std::size_t bj_kernel = n;
          std::size_t ties_reference = 0;
          std::size_t ties_kernel = 0;
          Cost bc_reference = 0;
          Cost bc_kernel = 0;
          reference.best_swap_for(x, rng_reference, bj_reference,
                                  bc_reference, ties_reference);
          kernel->best_swap_for(x, rng_kernel, bj_kernel, bc_kernel,
                                ties_kernel);
          ASSERT_EQ(bj_reference, bj_kernel)
              << name << " size=" << size << " seed=" << seed
              << " step=" << step << " x=" << x;
          ASSERT_EQ(bc_reference, bc_kernel) << name << " step=" << step;
          ASSERT_EQ(ties_reference, ties_kernel) << name << " step=" << step;
          ASSERT_EQ(rng_reference.state(), rng_kernel.state())
              << name << " size=" << size << " seed=" << seed << " step="
              << step << ": reservoir RNG stream position diverged";

          if (bj_reference < n && bj_reference != x) {
            const Cost s1 = reference.swap(x, bj_reference);
            const Cost s2 = kernel->swap(x, bj_kernel);
            ASSERT_EQ(s1, s2) << name << " step=" << step;
          }
        }
      }
    }
  }
}

TEST(Registry, KnowsEveryProblemAndRejectsUnknown) {
  EXPECT_EQ(problem_names().size(), 8u);
  EXPECT_EQ(paper_benchmarks().size(), 4u);
  for (const auto& name : problem_names()) {
    EXPECT_NO_THROW({
      auto p = make_problem(name, default_size(name), 1);
      EXPECT_EQ(p->name(), name);
    });
    EXPECT_GT(default_size(name), 0u);
    EXPECT_GT(bench_size(name), 0u);
  }
  EXPECT_THROW(make_problem("sudoku", 9), std::invalid_argument);
  EXPECT_THROW((void)default_size("sudoku"), std::invalid_argument);
  EXPECT_THROW((void)bench_size("sudoku"), std::invalid_argument);
  EXPECT_THROW((void)paper_size("sudoku"), std::invalid_argument);
}

TEST(Registry, PaperBenchmarksAreASubsetOfAllProblems) {
  for (const auto& name : paper_benchmarks()) {
    EXPECT_NE(std::find(problem_names().begin(), problem_names().end(), name),
              problem_names().end());
  }
}

TEST(Registry, PerfectSquareSizeZeroIsDuijvestijn) {
  auto p = make_problem("perfect-square", 0);
  EXPECT_NE(p->instance_description().find("Duijvestijn"), std::string::npos);
  EXPECT_EQ(p->num_variables(), 21u);
}

}  // namespace
}  // namespace cspls::problems
