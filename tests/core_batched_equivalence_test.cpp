// Fixed-seed trajectory identity of the batched hot path.
//
// Two locks:
//  1. Cross-path: for every model, the engine must walk the *identical*
//     trajectory (iterations, resets, evaluations, final configuration)
//     whether the kernel's batched overrides are active or the scalar
//     defaults run behind csp::ScalarPathProblem.  The batched API is a pure
//     constant-factor optimization — any divergence is a bug.
//  2. Cross-version: pinned fingerprints recorded from the pre-batching
//     engine (seed revision, scalar inline loops).  These freeze the RNG
//     draw discipline itself: a refactor that reorders tie-break draws
//     changes these numbers even if it stays internally cross-path
//     consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adaptive_search.hpp"
#include "csp/scalar_path.hpp"
#include "problems/registry.hpp"
#include "util/rng.hpp"

namespace cspls::core {
namespace {

core::Params bounded_params(const csp::Problem& p,
                            std::uint64_t restart_cap = 50'000) {
  auto params = core::Params::from_hints(p.tuning(), p.num_variables());
  params.max_restarts = 3;
  params.restart_limit =
      std::min<std::uint64_t>(params.restart_limit, restart_cap);
  return params;
}

std::uint64_t solution_hash(const std::vector<int>& solution) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the values
  for (const int v : solution) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(BatchedEquivalence, EveryModelWalksTheIdenticalTrajectoryOnBothPaths) {
  for (const auto& name : problems::problem_names()) {
    for (const std::uint64_t seed : {11ULL, 42ULL, 1234ULL}) {
      auto batched =
          problems::make_problem(name, problems::default_size(name), 3);
      csp::ScalarPathProblem scalar(
          problems::make_problem(name, problems::default_size(name), 3));
      const core::AdaptiveSearch engine(bounded_params(*batched));

      util::Xoshiro256 rng_batched(seed);
      util::Xoshiro256 rng_scalar(seed);
      const auto rb = engine.solve(*batched, rng_batched);
      const auto rs = engine.solve(scalar, rng_scalar);

      ASSERT_EQ(rb.solved, rs.solved) << name << " seed " << seed;
      ASSERT_EQ(rb.cost, rs.cost) << name << " seed " << seed;
      ASSERT_EQ(rb.solution, rs.solution) << name << " seed " << seed;
      ASSERT_EQ(rb.stats.iterations, rs.stats.iterations)
          << name << " seed " << seed;
      ASSERT_EQ(rb.stats.swaps, rs.stats.swaps) << name << " seed " << seed;
      ASSERT_EQ(rb.stats.plateau_moves, rs.stats.plateau_moves)
          << name << " seed " << seed;
      ASSERT_EQ(rb.stats.local_minima, rs.stats.local_minima)
          << name << " seed " << seed;
      ASSERT_EQ(rb.stats.resets, rs.stats.resets) << name << " seed " << seed;
      ASSERT_EQ(rb.stats.restarts, rs.stats.restarts)
          << name << " seed " << seed;
      ASSERT_EQ(rb.stats.cost_evaluations, rs.stats.cost_evaluations)
          << name << " seed " << seed;
      // Both runs drew exactly the same RNG sequence.
      ASSERT_EQ(rng_batched.state(), rng_scalar.state())
          << name << " seed " << seed;
    }
  }
}

struct PinnedWalk {
  const char* name;
  std::size_t size;
  std::uint64_t seed;
  int solved;
  std::uint64_t iterations;
  std::uint64_t swaps;
  std::uint64_t resets;
  std::uint64_t cost_evaluations;
  csp::Cost cost;
  std::uint64_t solution_fnv;
  std::uint64_t restart_cap = 50'000;  ///< restart_limit = min(hint, cap)
};

// Recorded from the pre-batching revision (scalar inline engine loops) with
// instance seed 3, max_restarts 3, restart_limit min(hint, 50000).  Any
// change to these numbers means the RNG draw discipline moved and parallel
// reproducibility claims must be re-validated.  The last three rows were
// recorded later, on the revision before the bounded, edge-only
// perfect-square probe and the dense alpha probe: race-suite's
// perfect-square size, Duijvestijn-21 under a fixed budget of 4 x 1000
// iterations (it never solves there, so the walk runs the whole budget),
// and a second, longer alpha walk.
constexpr PinnedWalk kPinnedWalks[] = {
    {"costas", 10, 42, 1, 18, 8, 5, 162, 0, 0xb549a640310502cULL},
    {"costas", 12, 7, 1, 1686, 422, 632, 18546, 0, 0xc969d80f8829b55ULL},
    {"all-interval", 14, 42, 1, 264, 39, 11, 3432, 0, 0x164d646c2cc0dfaeULL},
    {"all-interval", 18, 7, 1, 165, 27, 7, 2805, 0, 0x167be27bef951278ULL},
    {"magic-square", 6, 42, 1, 3360, 678, 236, 117600, 0,
     0x64f09f52ee43c391ULL},
    {"magic-square", 8, 7, 1, 10553, 2117, 420, 664839, 0,
     0xefb2c102a8b3bfa7ULL},
    {"queens", 30, 42, 1, 13, 10, 0, 377, 0, 0x870b50beb35f7ae2ULL},
    {"langford", 8, 42, 1, 54, 7, 0, 810, 0, 0xb2616d3af172a3ebULL},
    {"partition", 24, 42, 1, 2682, 150, 210, 61686, 0, 0x84ef98f3fa6a367fULL},
    {"alpha", 26, 42, 1, 12528, 1174, 769, 313200, 0, 0xae76e374d54bfa60ULL},
    {"perfect-square", 5, 42, 1, 65, 7, 7, 975, 0, 0x8e4374fc5a346eb9ULL},
    {"perfect-square", 8, 13, 1, 284, 29, 35, 6816, 0, 0x7e90f15ffab1d86dULL},
    {"perfect-square", 0, 42, 0, 4000, 597, 480, 80000, 499,
     0xc68e443198c2c5f9ULL, 1000},
    {"alpha", 26, 7, 1, 151104, 13062, 9570, 3777600, 0,
     0xae76e374d54bfa60ULL},
};

TEST(BatchedEquivalence, FixedSeedWalksMatchThePreBatchingEngine) {
  for (const auto& pin : kPinnedWalks) {
    auto p = problems::make_problem(pin.name, pin.size, 3);
    const core::AdaptiveSearch engine(bounded_params(*p, pin.restart_cap));
    util::Xoshiro256 rng(pin.seed);
    const auto r = engine.solve(*p, rng);
    ASSERT_EQ(r.solved, pin.solved == 1) << pin.name << " n=" << pin.size;
    ASSERT_EQ(r.stats.iterations, pin.iterations)
        << pin.name << " n=" << pin.size;
    ASSERT_EQ(r.stats.swaps, pin.swaps) << pin.name << " n=" << pin.size;
    ASSERT_EQ(r.stats.resets, pin.resets) << pin.name << " n=" << pin.size;
    ASSERT_EQ(r.stats.cost_evaluations, pin.cost_evaluations)
        << pin.name << " n=" << pin.size;
    ASSERT_EQ(r.cost, pin.cost) << pin.name << " n=" << pin.size;
    ASSERT_EQ(solution_hash(r.solution), pin.solution_fnv)
        << pin.name << " n=" << pin.size;
  }
}

}  // namespace
}  // namespace cspls::core
