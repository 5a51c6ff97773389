// Asynchronous gossip (CommMode::kAsync): the engine's mid-walk adoption
// hook, mid-walk pull wiring through comm_hooks, determinism of gossiping
// sequential pools (best-after-budget and first-finisher), the
// adoption/publish/accept counter split, threaded gossip under TSan, and
// the async x kNone validation rejection.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/adaptive_search.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/rng.hpp"

namespace cspls::parallel {
namespace {

/// Unsolvable-instance pool options on which communication actually fires:
/// every walker runs its whole (small) budget, exchanging every 100
/// iterations.
WalkerPoolOptions gossip_options(Neighborhood neighborhood,
                                 Exchange exchange, CommMode mode) {
  problems::Langford langford(5);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 13;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kBestAfterBudget;
  pool.params = params;
  pool.communication.neighborhood = neighborhood;
  pool.communication.exchange = exchange;
  pool.communication.mode = mode;
  pool.communication.period = 100;
  pool.communication.adopt_probability = 0.5;
  return pool;
}

void expect_identical_reports(const MultiWalkReport& a,
                              const MultiWalkReport& b) {
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations)
        << "walker " << i;
    EXPECT_EQ(a.walkers[i].result.cost, b.walkers[i].result.cost)
        << "walker " << i;
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution)
        << "walker " << i;
    EXPECT_EQ(a.walkers[i].result.stats.resets, b.walkers[i].result.stats.resets)
        << "walker " << i;
  }
  EXPECT_EQ(a.comm_publishes, b.comm_publishes);
  EXPECT_EQ(a.elite_accepted, b.elite_accepted);
  EXPECT_EQ(a.comm_adoptions, b.comm_adoptions);
}

// --- The engine's mid-walk adoption hook --------------------------------

TEST(MidWalkHook, AdoptedSolutionEndsTheWalk) {
  // Obtain a genuine solution first, then inject it through the mid-walk
  // hook into a fresh walk: the engine must notice the adopted
  // configuration reached the target and stop — through the recomputed
  // cost, not a stale error cache.
  problems::Costas costas(10);
  const core::AdaptiveSearch engine(core::AdaptiveSearch::with_defaults(costas));
  auto solver_clone = costas.clone();
  util::Xoshiro256 warmup_rng(3);
  const core::Result warmup = engine.solve(*solver_clone, warmup_rng);
  ASSERT_TRUE(warmup.solved);

  auto fresh = costas.clone();
  util::Xoshiro256 rng(4);
  core::Hooks hooks;
  hooks.mid_walk_period = 10;
  hooks.mid_walk = [&warmup](csp::Problem& problem, util::Xoshiro256&) {
    problem.assign(warmup.solution);
    return true;
  };
  const core::Result result = engine.solve(*fresh, rng, core::StopToken{}, hooks);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.cost, 0);
  EXPECT_EQ(result.solution, warmup.solution);
  EXPECT_TRUE(costas.verify(result.solution));
}

TEST(MidWalkHook, DecliningHookLeavesTheWalkByteIdentical) {
  // A mid-walk hook that consumes no RNG and adopts nothing must be
  // invisible: same trajectory as the hook-free run.
  problems::Costas costas(10);
  const core::AdaptiveSearch engine(core::AdaptiveSearch::with_defaults(costas));

  auto plain_clone = costas.clone();
  util::Xoshiro256 plain_rng(9);
  const core::Result plain = engine.solve(*plain_clone, plain_rng);

  auto hooked_clone = costas.clone();
  util::Xoshiro256 hooked_rng(9);
  core::Hooks hooks;
  hooks.mid_walk_period = 25;
  std::uint64_t gates = 0;
  hooks.mid_walk = [&gates](csp::Problem&, util::Xoshiro256&) {
    ++gates;
    return false;
  };
  const core::Result hooked =
      engine.solve(*hooked_clone, hooked_rng, core::StopToken{}, hooks);

  EXPECT_EQ(hooked.solved, plain.solved);
  EXPECT_EQ(hooked.cost, plain.cost);
  EXPECT_EQ(hooked.stats.iterations, plain.stats.iterations);
  EXPECT_EQ(hooked.stats.swaps, plain.stats.swaps);
  EXPECT_EQ(hooked.stats.resets, plain.stats.resets);
  EXPECT_EQ(hooked.solution, plain.solution);
  EXPECT_EQ(gates, plain.stats.iterations / 25);
}

TEST(MidWalkHook, AdoptingAWorseConfigurationReentersCleanly) {
  // Adoption is not always an improvement (migration is diversification):
  // after adopting an arbitrary configuration mid-walk the engine must
  // carry on consistently and still solve.
  problems::Costas costas(9);
  const core::AdaptiveSearch engine(core::AdaptiveSearch::with_defaults(costas));
  auto clone = costas.clone();
  util::Xoshiro256 rng(5);
  core::Hooks hooks;
  hooks.mid_walk_period = 50;
  bool adopted = false;
  hooks.mid_walk = [&adopted](csp::Problem& problem, util::Xoshiro256& r) {
    if (adopted) return false;
    adopted = true;
    // A fresh random configuration: almost surely worse than mid-walk state.
    (void)problem.randomize(r);
    return true;
  };
  const core::Result result = engine.solve(*clone, rng, core::StopToken{}, hooks);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas.verify(result.solution));
}

// --- Gossiping pools ----------------------------------------------------

TEST(AsyncGossip, DeterministicUnderSequentialScheduling) {
  for (const Exchange exchange :
       {Exchange::kElite, Exchange::kMigration, Exchange::kDecayElite}) {
    problems::Langford langford(5);
    WalkerPoolOptions pool =
        gossip_options(Neighborhood::kRing, exchange, CommMode::kAsync);
    if (exchange == Exchange::kDecayElite) pool.communication.decay = 6;
    const auto a = WalkerPool(pool).run(langford);
    const auto b = WalkerPool(pool).run(langford);
    expect_identical_reports(a, b);
  }
}

TEST(AsyncGossip, DeterministicUnderEmulatedRace) {
  problems::Langford langford(5);
  WalkerPoolOptions pool =
      gossip_options(Neighborhood::kComplete, Exchange::kElite,
                     CommMode::kAsync);
  pool.termination = Termination::kFirstFinisher;
  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.winner, b.winner);
  expect_identical_reports(a, b);
}

TEST(AsyncGossip, MigrationAdoptsMidWalk) {
  // Unconditional migration on the ring (per-walker slots): in sequential
  // order every walker after the first finds its predecessor's migrant at
  // each mid-walk gate, so with a certain gate adoptions are plentiful
  // while accepted offers stay zero (stores are not accepts).
  problems::Langford langford(5);
  WalkerPoolOptions pool = gossip_options(
      Neighborhood::kRing, Exchange::kMigration, CommMode::kAsync);
  pool.communication.adopt_probability = 1.0;
  const auto report = WalkerPool(pool).run(langford);
  EXPECT_GT(report.comm_publishes, 0u);
  EXPECT_EQ(report.elite_accepted, 0u);  // migration never "accepts"
  EXPECT_GT(report.comm_adoptions, 0u);
}

TEST(AsyncGossip, MidWalkGateNeverAdoptsOwnPublication) {
  // A single walker on the complete graph publishes into the one shared
  // slot and is also its only reader: every mid-walk gate would "adopt"
  // its own configuration back.  The self-publication filter must make
  // gossip inert here — zero adoptions despite a certain gate.
  problems::Langford langford(5);
  WalkerPoolOptions pool = gossip_options(
      Neighborhood::kComplete, Exchange::kMigration, CommMode::kAsync);
  pool.num_walkers = 1;
  pool.communication.adopt_probability = 1.0;
  const auto report = WalkerPool(pool).run(langford);
  EXPECT_GT(report.comm_publishes, 0u);  // it still publishes
  EXPECT_EQ(report.comm_adoptions, 0u);  // but never gossips with itself
}

TEST(AsyncGossip, GossipAdoptsAtLeastAsOftenAsOnReset) {
  // Same ring population, same seed: async mode keeps the reset-time
  // adoption path and adds mid-walk gates that (for walkers > 0) always
  // face a fresh predecessor migrant, so with a certain gate it adopts
  // far more often than restart-time-only communication.
  problems::Langford langford(5);
  WalkerPoolOptions on_reset = gossip_options(
      Neighborhood::kRing, Exchange::kMigration, CommMode::kOnReset);
  on_reset.communication.adopt_probability = 1.0;
  WalkerPoolOptions async = on_reset;
  async.communication.mode = CommMode::kAsync;
  const auto reset_report = WalkerPool(on_reset).run(langford);
  const auto async_report = WalkerPool(async).run(langford);
  EXPECT_GE(async_report.comm_adoptions, reset_report.comm_adoptions);
  EXPECT_GT(async_report.comm_adoptions, 0u);
}

TEST(AsyncGossip, ThreadedGossipSolves) {
  // The TSan job runs this binary: concurrent mid-walk pulls against the
  // slot mutexes and the pool-wide clock must be race-free.
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 6;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kHypercube;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.mode = CommMode::kAsync;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

TEST(AsyncGossip, ThreadedMigrationGossipSolves) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 8;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kTorus;
  pool.communication.exchange = Exchange::kMigration;
  pool.communication.mode = CommMode::kAsync;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

// --- Validation ---------------------------------------------------------

TEST(AsyncGossipValidation, AsyncWithoutAnExchangeIsRejected) {
  problems::Costas costas(8);
  WalkerPoolOptions pool;
  pool.communication.mode = CommMode::kAsync;  // exchange stays kNone
  try {
    (void)WalkerPool(std::move(pool)).run(costas);
    FAIL() << "async x none accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos)
        << e.what();
  }
}

TEST(AsyncGossipValidation, DefaultModeIsOnReset) {
  EXPECT_EQ(CommunicationPolicy{}.mode, CommMode::kOnReset);
  // An exchanging pair keeps the historical adopt-on-reset semantics unless
  // asked otherwise.
  const CommunicationPolicy ring{.neighborhood = Neighborhood::kRing,
                                 .exchange = Exchange::kElite};
  EXPECT_EQ(ring.mode, CommMode::kOnReset);
}

}  // namespace
}  // namespace cspls::parallel
