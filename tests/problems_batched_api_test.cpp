// Registry-wide contract suite for the batched hot-path hooks: for every
// model, cost_on_all_variables must reproduce the scalar per-variable
// projection bit-for-bit, and best_swap_for must reproduce the reference
// reservoir argmin over cost_if_swap — including the exact RNG draw
// sequence, so the batched engine walks the identical search trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "csp/scalar_path.hpp"
#include "problems/perfect_square.hpp"
#include "problems/registry.hpp"
#include "util/rng.hpp"

namespace cspls::problems {
namespace {

using csp::Cost;

std::size_t batched_size(const std::string& name) {
  static const std::map<std::string, std::size_t> sizes = {
      {"costas", 9},       {"all-interval", 14}, {"perfect-square", 5},
      {"magic-square", 6}, {"queens", 12},       {"langford", 8},
      {"partition", 16},   {"alpha", 26},
  };
  return sizes.at(name);
}

/// best_swap_for for every x against the scalar reference scan
/// (cost_if_swap per candidate through SwapScan::consider): same winner,
/// cost, ties, evaluation count and RNG draws, and the winner really is the
/// exhaustive argmin.
void expect_best_swap_matches_reference(const csp::Problem& p,
                                        std::uint64_t rng_seed,
                                        const std::string& context) {
  const std::size_t n = p.num_variables();
  for (std::size_t x = 0; x < n; ++x) {
    // Two identically-seeded generators: the batched scan and the scalar
    // reference must draw the same values in the same order.
    util::Xoshiro256 rng_batched(rng_seed + x);
    util::Xoshiro256 rng_reference(rng_seed + x);

    std::size_t best_j = 0, ties = 0;
    Cost best_cost = 0;
    const std::uint64_t evaluated =
        p.best_swap_for(x, rng_batched, best_j, best_cost, ties);

    std::size_t ref_j = 0, ref_ties = 0;
    Cost ref_cost = 0;
    const std::uint64_t ref_evaluated = csp::detail::scalar_best_swap_for(
        p, x, rng_reference, ref_j, ref_cost, ref_ties);

    ASSERT_EQ(best_j, ref_j) << context << " x=" << x;
    ASSERT_EQ(best_cost, ref_cost) << context << " x=" << x;
    ASSERT_EQ(ties, ref_ties) << context << " x=" << x;
    ASSERT_EQ(evaluated, ref_evaluated) << context << " x=" << x;
    ASSERT_EQ(rng_batched.state(), rng_reference.state())
        << context << " x=" << x << ": RNG draw sequences diverged";

    // And the reference really is the exhaustive argmin.
    Cost exhaustive = csp::kInfiniteCost;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == x) continue;
      exhaustive = std::min(exhaustive, p.cost_if_swap(x, j));
    }
    ASSERT_EQ(best_cost, exhaustive) << context << " x=" << x;
    ASSERT_EQ(p.cost_if_swap(x, best_j), best_cost) << context << " x=" << x;
  }
}

class BatchedApiContract : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<csp::Problem> make() const {
    return make_problem(GetParam(), batched_size(GetParam()), 3);
  }

  /// Drive the model through a mixed mutation so the incremental structures
  /// are exercised, not just the freshly-rebound state.
  static void churn(csp::Problem& p, util::Xoshiro256& rng, int steps) {
    const std::size_t n = p.num_variables();
    for (int s = 0; s < steps; ++s) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      auto j = static_cast<std::size_t>(rng.below(n));
      if (i == j) j = (j + 1) % n;
      (void)p.swap(i, j);
    }
  }

  static void expect_bulk_matches_scalar(const csp::Problem& p,
                                         const std::string& context) {
    const std::size_t n = p.num_variables();
    std::vector<Cost> bulk(n, -1);
    p.cost_on_all_variables(bulk);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bulk[i], p.cost_on_variable(i)) << context << " var " << i;
    }
  }
};

TEST_P(BatchedApiContract, BulkErrorsMatchScalarProjection) {
  auto p = make();
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    p->randomize(rng);
    expect_bulk_matches_scalar(*p, GetParam() + " fresh");
    churn(*p, rng, 60);
    expect_bulk_matches_scalar(*p, GetParam() + " churned");
    p->reset_perturbation(0.3, rng);
    expect_bulk_matches_scalar(*p, GetParam() + " reset");
  }
}

TEST_P(BatchedApiContract, BestSwapMatchesExhaustiveReference) {
  auto p = make();
  util::Xoshiro256 rng(22);
  p->randomize(rng);
  expect_best_swap_matches_reference(*p, 1000, GetParam() + " fresh");
  churn(*p, rng, 80);
  expect_best_swap_matches_reference(*p, 2000, GetParam() + " churned");
  p->reset_perturbation(0.4, rng);
  expect_best_swap_matches_reference(*p, 3000, GetParam() + " reset");
}

TEST_P(BatchedApiContract, BestSwapDoesNotMutateObservableState) {
  auto p = make();
  util::Xoshiro256 rng(23);
  p->randomize(rng);
  const std::vector<int> before(p->values().begin(), p->values().end());
  const Cost cost_before = p->total_cost();
  util::Xoshiro256 scan_rng(24);
  for (std::size_t x = 0; x < p->num_variables(); ++x) {
    std::size_t best_j = 0, ties = 0;
    Cost best_cost = 0;
    (void)p->best_swap_for(x, scan_rng, best_j, best_cost, ties);
  }
  EXPECT_TRUE(std::equal(before.begin(), before.end(), p->values().begin()));
  EXPECT_EQ(p->total_cost(), cost_before);
  EXPECT_EQ(p->full_cost(), cost_before);
}

TEST_P(BatchedApiContract, ScalarPathAdapterPinsTheDefaults) {
  // The adapter must behave exactly like the wrapped model observed through
  // the scalar virtuals — same bulk values, same draws, same metadata.
  auto inner = make();
  util::Xoshiro256 rng(25);
  inner->randomize(rng);
  csp::ScalarPathProblem adapter(inner->clone());
  ASSERT_EQ(adapter.num_variables(), inner->num_variables());
  ASSERT_EQ(adapter.name(), inner->name());
  ASSERT_EQ(adapter.total_cost(), inner->total_cost());

  const std::size_t n = inner->num_variables();
  std::vector<Cost> a(n), b(n);
  adapter.cost_on_all_variables(a);
  inner->cost_on_all_variables(b);
  EXPECT_EQ(a, b);

  util::Xoshiro256 r1(26), r2(26);
  std::size_t j1 = 0, j2 = 0, t1 = 0, t2 = 0;
  Cost c1 = 0, c2 = 0;
  const auto e1 = adapter.best_swap_for(1, r1, j1, c1, t1);
  const auto e2 = inner->best_swap_for(1, r2, j2, c2, t2);
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(r1.state(), r2.state());
}

INSTANTIATE_TEST_SUITE_P(AllModels, BatchedApiContract,
                         ::testing::ValuesIn(problem_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// The kernels whose probes skip work: perfect-square bounds each decode by
// the running best and prices equal-size swaps without one; alpha runs one
// dense pass over every equation.  expect_best_swap_matches_reference checks
// every x, so the first and last positions are always among them.
struct SizedModel {
  const char* name;
  std::size_t size;
};
constexpr SizedModel kPruningKernels[] = {{"perfect-square", 5},
                                          {"perfect-square", 8},
                                          {"perfect-square", 0},
                                          {"alpha", 26}};

TEST(BatchedApiEdgeCases, PruningKernelsMatchReferenceBeforeAndAfterRandomize) {
  for (const auto& model : kPruningKernels) {
    auto p = make_problem(model.name, model.size, 3);
    const std::string label =
        std::string(model.name) + ":" + std::to_string(model.size);
    // Before any randomize perfect-square has no prefix checkpoints yet and
    // alpha's equation sums are still zero.
    expect_best_swap_matches_reference(*p, 4000, label + " before randomize");
    util::Xoshiro256 rng(27);
    for (std::uint64_t round = 0; round < 4; ++round) {
      p->randomize(rng);
      expect_best_swap_matches_reference(*p, 5000 + 100 * round,
                                         label + " randomized");
    }
  }
}

TEST(BatchedApiEdgeCases, AllEqualPerfectSquareSizesTieOnEveryCandidate) {
  // Nine 2x2 squares tile a 6x6 square in any order: every candidate costs
  // zero, so each one after the first ties and draws.
  PerfectSquareInstance equal;
  equal.side = 6;
  equal.sizes.assign(9, 2);
  equal.label = "nine 2x2";
  PerfectSquare p(equal);
  expect_best_swap_matches_reference(p, 6000, "nine 2x2 before randomize");
  util::Xoshiro256 rng(28);
  p.randomize(rng);
  expect_best_swap_matches_reference(p, 7000, "nine 2x2 randomized");
  const std::size_t n = p.num_variables();
  for (std::size_t x = 0; x < n; ++x) {
    util::Xoshiro256 draws(x);
    std::size_t best_j = 0, ties = 0;
    Cost best_cost = 1;
    (void)p.best_swap_for(x, draws, best_j, best_cost, ties);
    EXPECT_EQ(best_cost, 0);
    EXPECT_EQ(ties, n - 1);
  }
}

}  // namespace
}  // namespace cspls::problems
