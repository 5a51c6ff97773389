// Independent multi-walk races through WalkerPool: the first-finisher
// protocol, stream seeding, determinism of the sequential paths, the
// emulated race replay, elite-pool semantics.
#include "parallel/walker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "parallel/elite_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "problems/registry.hpp"
#include "util/rng.hpp"

namespace cspls::parallel {
namespace {

/// The paper's scheme: real threads, no communication, first finisher wins.
WalkerPoolOptions race_options(std::size_t num_walkers,
                               std::uint64_t master_seed) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  return pool;
}

/// Every walker of the same population run to completion, one after
/// another: the full runtime distribution the simulator samples.
std::vector<WalkerOutcome> independent_walks(
    const csp::Problem& prototype, std::size_t num_walkers,
    std::uint64_t master_seed, const std::optional<core::Params>& params = {}) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.params = params;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kBestAfterBudget;
  return WalkerPool(pool).run(prototype).walkers;
}

/// The same population raced offline: a sequential first-finisher pool.
MultiWalkReport emulated_race(const csp::Problem& prototype,
                              std::size_t num_walkers,
                              std::uint64_t master_seed,
                              const std::optional<core::Params>& params = {}) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.params = params;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kFirstFinisher;
  return WalkerPool(pool).run(prototype);
}

TEST(ThreadedRace, SolvesAndWinnerIsWellFormed) {
  problems::Costas costas(10);
  const MultiWalkReport report = WalkerPool(race_options(4, 1)).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_LT(report.winner, 4u);
  EXPECT_TRUE(report.best.solved);
  EXPECT_EQ(report.best.cost, 0);
  EXPECT_TRUE(costas.verify(report.best.solution));
  EXPECT_EQ(report.walkers.size(), 4u);
  EXPECT_GT(report.total_iterations(), 0u);
  EXPECT_GE(report.wall_seconds, report.time_to_solution_seconds);
}

TEST(ThreadedRace, EveryWalkerEitherFinishedOrWasInterrupted) {
  problems::Costas costas(11);
  const MultiWalkReport report = WalkerPool(race_options(6, 2)).run(costas);
  ASSERT_TRUE(report.solved);
  for (const auto& w : report.walkers) {
    EXPECT_TRUE(w.result.solved || w.result.interrupted)
        << "walker " << w.walker_id;
  }
  // The winner must have finished on its own.
  EXPECT_FALSE(report.walkers[report.winner].result.interrupted);
}

TEST(ThreadedRace, SingleWalkerDegeneratesToSequential) {
  problems::Costas costas(9);
  const MultiWalkReport report = WalkerPool(race_options(1, 3)).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_EQ(report.winner, 0u);
}

TEST(ThreadedRace, ThreadCapStillCompletesAllWalkers) {
  problems::Costas costas(9);
  WalkerPoolOptions options = race_options(8, 4);
  options.max_threads = 2;
  const MultiWalkReport report = WalkerPool(options).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_EQ(report.walkers.size(), 8u);
}

TEST(ThreadedRace, UnsolvableInstanceReportsBestEffort) {
  // L(2,5) has no solution (n must be ≡ 0 or 3 mod 4).
  problems::Langford langford(5);
  WalkerPoolOptions options = race_options(3, 5);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 2;
  options.params = params;
  const MultiWalkReport report = WalkerPool(options).run(langford);
  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, kNoWinner);
  EXPECT_FALSE(report.has_winner());
  EXPECT_GT(report.best.cost, 0);
  EXPECT_FALSE(report.best.solution.empty());
}

TEST(IndependentWalks, DeterministicPerStream) {
  problems::Costas costas(10);
  const auto a = independent_walks(costas, 5, 42);
  const auto b = independent_walks(costas, 5, 42);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.stats.iterations, b[i].result.stats.iterations);
    EXPECT_EQ(a[i].result.solution, b[i].result.solution);
  }
}

TEST(IndependentWalks, StreamsExploreIndependently) {
  problems::Costas costas(11);
  const auto walks = independent_walks(costas, 8, 7);
  std::set<std::uint64_t> iteration_counts;
  for (const auto& w : walks) {
    EXPECT_TRUE(w.result.solved);
    iteration_counts.insert(w.result.stats.iterations);
  }
  // Eight independent heavy-tailed walks almost surely differ.
  EXPECT_GT(iteration_counts.size(), 4u);
}

TEST(IndependentWalks, PrefixStabilityAcrossPopulationSize) {
  // Walker i's trajectory must not depend on how many walkers run: this is
  // what makes offline min-of-k analysis equivalent to the racing version.
  problems::Costas costas(9);
  const auto small = independent_walks(costas, 3, 99);
  const auto large = independent_walks(costas, 6, 99);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].result.stats.iterations,
              large[i].result.stats.iterations);
  }
}

TEST(EmulatedRace, PicksFewestIterations) {
  problems::Costas costas(10);
  const MultiWalkReport report = emulated_race(costas, 6, 11);
  ASSERT_TRUE(report.solved);
  const auto& winner = report.walkers[report.winner];
  for (const auto& w : report.walkers) {
    if (w.result.solved && w.walker_id != report.winner) {
      // Fewest iterations; the lower id wins a tie.
      EXPECT_TRUE(winner.result.stats.iterations < w.result.stats.iterations ||
                  (winner.result.stats.iterations ==
                       w.result.stats.iterations &&
                   winner.walker_id < w.walker_id));
    }
  }
  EXPECT_EQ(report.best.stats.iterations, winner.result.stats.iterations);
  EXPECT_EQ(report.time_to_solution_seconds, winner.result.stats.seconds);
}

TEST(EmulatedRace, HandlesAllFailed) {
  problems::Langford langford(5);  // unsolvable
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 500;
  params.max_restarts = 0;
  const MultiWalkReport report = emulated_race(langford, 3, 1, params);
  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, kNoWinner);
  EXPECT_GT(report.best.cost, 0);
  EXPECT_FALSE(report.best.solution.empty());
  EXPECT_EQ(report.time_to_solution_seconds, report.wall_seconds);
}

TEST(ElitePool, OfferAcceptsOnlyStrictImprovements) {
  ElitePool pool;  // decay 0: the PR-1 keep-best slot
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{3, 2, 1};
  EXPECT_TRUE(pool.offer(1, 10, a));
  EXPECT_FALSE(pool.offer(2, 10, b));  // equal is rejected
  EXPECT_FALSE(pool.offer(3, 11, b));
  EXPECT_TRUE(pool.offer(4, 9, b));
  EXPECT_EQ(pool.snapshot().cost, 9);
  EXPECT_EQ(pool.accepted_offers(), 2u);
}

TEST(ElitePool, TakeIfBetterHonoursThreshold) {
  ElitePool pool;
  std::vector<int> out;
  EXPECT_EQ(pool.take_if_better(1, 100, out), csp::kInfiniteCost);  // empty
  pool.offer(1, 10, std::vector<int>{4, 5, 6});
  EXPECT_EQ(pool.take_if_better(2, 10, out), csp::kInfiniteCost);  // not better
  EXPECT_EQ(pool.take_if_better(2, 11, out), 10);
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
}

TEST(SharedEliteRace, SolvesWithCommunicationEnabled) {
  problems::Costas costas(10);
  WalkerPoolOptions options = race_options(4, 6);
  options.communication.neighborhood = Neighborhood::kComplete;
  options.communication.exchange = Exchange::kElite;
  options.communication.period = 50;
  options.communication.adopt_probability = 0.5;
  const MultiWalkReport report = WalkerPool(options).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

/// Sweep: the threaded race must succeed across walker counts and seeds.
class RaceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(RaceSweep, AlwaysSolvesCostas9) {
  const auto [walkers, seed] = GetParam();
  problems::Costas costas(9);
  const MultiWalkReport report =
      WalkerPool(race_options(walkers, seed)).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RaceSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(1ULL, 77ULL)));

}  // namespace
}  // namespace cspls::parallel
