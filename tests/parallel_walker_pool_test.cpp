// WalkerPool policy-matrix tests: scheduling-mode equivalence against
// reference implementations of the historical walks (walker-for-walker
// RNG-stream identity), fixed-seed identity of the PR-1 communication
// schemes spelled through the Neighborhood x ExchangeStrategy API, the
// migration and decay-elite strategies, option validation,
// best-after-budget termination, and sample-sink neutrality.
#include "parallel/walker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/adaptive_search.hpp"
#include "parallel/elite_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/rng.hpp"

namespace cspls::parallel {
namespace {

/// Reference implementation of the pre-refactor run_independent_walks: one
/// engine, a clone of the prototype and RNG stream `id` per walker, each
/// run to completion with no stop flag and no hooks.  The pool's sequential
/// mode must reproduce this outcome walker-for-walker.
std::vector<core::Result> reference_walks(const csp::Problem& prototype,
                                          std::size_t num_walkers,
                                          std::uint64_t master_seed) {
  const core::Params params = core::Params::from_hints(
      prototype.tuning(), prototype.num_variables());
  const core::AdaptiveSearch engine(params);
  const util::RngStreamFactory streams(master_seed);
  std::vector<core::Result> results;
  results.reserve(num_walkers);
  for (std::size_t id = 0; id < num_walkers; ++id) {
    auto problem = prototype.clone();
    util::Xoshiro256 rng = streams.stream(id);
    results.push_back(engine.solve(*problem, rng));
  }
  return results;
}

WalkerPoolOptions sequential_options(std::size_t num_walkers,
                                     std::uint64_t master_seed) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kBestAfterBudget;
  return pool;
}

TEST(WalkerPoolEquivalence, SequentialModeReproducesLegacyIndependentWalks) {
  problems::Costas costas(10);
  const auto reference = reference_walks(costas, 5, 42);

  const auto report = WalkerPool(sequential_options(5, 42)).run(costas);
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report.walkers[i].walker_id, i);
    EXPECT_EQ(report.walkers[i].result.solved, reference[i].solved);
    EXPECT_EQ(report.walkers[i].result.cost, reference[i].cost);
    EXPECT_EQ(report.walkers[i].result.solution, reference[i].solution);
    EXPECT_EQ(report.walkers[i].result.stats.iterations,
              reference[i].stats.iterations);
    EXPECT_EQ(report.walkers[i].result.stats.swaps, reference[i].stats.swaps);
    EXPECT_EQ(report.walkers[i].result.stats.resets,
              reference[i].stats.resets);
  }
}

TEST(WalkerPoolEquivalence, SampleSinkDoesNotPerturbOutcomes) {
  problems::Costas costas(10);
  const auto reference = reference_walks(costas, 4, 7);

  std::vector<std::vector<std::uint64_t>> iterations(4);
  WalkerPoolOptions pool = sequential_options(4, 7);
  pool.sample_sink = [&iterations](std::size_t id, std::uint64_t iteration,
                                   csp::Cost) {
    iterations[id].push_back(iteration);
  };
  pool.sample_sink_period = 50;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& walker = report.walkers[i];
    // Identical trajectory despite sampling: the sink is RNG-neutral.
    EXPECT_EQ(walker.result.stats.iterations, reference[i].stats.iterations);
    EXPECT_EQ(walker.result.solution, reference[i].solution);
    // The series starts at iteration 0 and rises in steps of the period,
    // up to the walk's last iteration.
    ASSERT_EQ(iterations[i].size(), walker.result.stats.iterations / 50 + 1);
    for (std::size_t s = 0; s < iterations[i].size(); ++s) {
      EXPECT_EQ(iterations[i][s], 50 * s);
    }
  }
}

TEST(WalkerPoolEquivalence, EmulatedRaceReplaysTheSequentialWalks) {
  // A sequential first-finisher pool walks exactly the budget pool's walks
  // and replays the race over them: the solved walk with the fewest
  // iterations wins, the lower id breaking ties.
  problems::Costas costas(10);
  const auto walks = WalkerPool(sequential_options(6, 11)).run(costas).walkers;
  std::size_t expected = kNoWinner;
  for (const auto& w : walks) {
    if (!w.result.solved) continue;
    if (expected == kNoWinner ||
        w.result.stats.iterations < walks[expected].result.stats.iterations) {
      expected = w.walker_id;
    }
  }
  ASSERT_NE(expected, kNoWinner);

  WalkerPoolOptions pool = sequential_options(6, 11);
  pool.termination = Termination::kFirstFinisher;
  const auto emulated = WalkerPool(pool).run(costas);

  ASSERT_TRUE(emulated.solved);
  EXPECT_EQ(emulated.winner, expected);
  EXPECT_EQ(emulated.best.stats.iterations,
            walks[expected].result.stats.iterations);
  EXPECT_EQ(emulated.best.solution, walks[expected].result.solution);
  EXPECT_EQ(emulated.time_to_solution_seconds,
            emulated.walkers[expected].result.stats.seconds);
  ASSERT_EQ(emulated.walkers.size(), walks.size());
  for (std::size_t i = 0; i < walks.size(); ++i) {
    EXPECT_EQ(emulated.walkers[i].result.stats.iterations,
              walks[i].result.stats.iterations);
    EXPECT_EQ(emulated.walkers[i].result.solution, walks[i].result.solution);
  }
}

TEST(WalkerPool, ThreadedIndependentRaceSolves) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 1;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  ASSERT_LT(report.winner, 4u);
  EXPECT_TRUE(costas.verify(report.best.solution));
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, RingEliteExchangeSolves) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 6;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kRing;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

TEST(WalkerPool, RingEliteIsDeterministicSequentially) {
  // In sequential mode the ring exchanges are fully deterministic: walker i
  // only ever reads slot i-1, which was last written by an *earlier* walker
  // of the same run.  Two runs with the same seed must agree exactly.
  problems::Langford langford(5);  // unsolvable: every walker runs its budget
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(4, 13);
  pool.params = params;
  pool.communication.neighborhood = Neighborhood::kRing;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.period = 100;
  pool.communication.adopt_probability = 0.5;

  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.cost, b.walkers[i].result.cost);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
  EXPECT_EQ(a.elite_accepted, b.elite_accepted);
  // Every walker ran >= period iterations, so every ring slot accepted at
  // least its owner's first offer.
  EXPECT_GE(a.elite_accepted, pool.num_walkers);
}

TEST(WalkerPool, BestAfterBudgetReportsLowestCost) {
  problems::Langford langford(5);  // unsolvable
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 1'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(5, 21);
  pool.params = params;
  const auto report = WalkerPool(pool).run(langford);

  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, kNoWinner);
  EXPECT_FALSE(report.has_winner());
  csp::Cost lowest = csp::kInfiniteCost;
  for (const auto& w : report.walkers) {
    lowest = std::min(lowest, w.result.cost);
    EXPECT_FALSE(w.result.interrupted);  // nobody raced anybody
  }
  EXPECT_EQ(report.best.cost, lowest);
  // Not a race replay: the emulated machine's wall clock is the result time.
  EXPECT_DOUBLE_EQ(report.time_to_solution_seconds, report.wall_seconds);
}

TEST(WalkerPool, ThreadedBestAfterBudgetRunsEveryWalkerToCompletion) {
  problems::Costas costas(9);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 3;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kBestAfterBudget;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  EXPECT_TRUE(costas.verify(report.best.solution));
  for (const auto& w : report.walkers) {
    // No stop flag in this regime: every walker finishes its own budget.
    EXPECT_FALSE(w.result.interrupted);
    EXPECT_TRUE(w.result.solved);
  }
}

// --- Fixed-seed identity of the legacy topologies under the new API -----

/// Reference implementation of the PR-1 communication wiring: per-walker
/// elite slots (one shared slot for the shared topology), keep-best publish
/// every `period` iterations, single-source adopt-if-better on reset after
/// one chance(p) draw — exactly the hooks walker_pool.cpp hard-wired before
/// the Neighborhood/ExchangeStrategy split.  Walkers run sequentially, so
/// the pool's kSequential mode must reproduce these results byte-for-byte.
std::vector<core::Result> reference_elite_walks(
    const csp::Problem& prototype, std::size_t num_walkers,
    std::uint64_t master_seed, const std::optional<core::Params>& params,
    std::uint64_t period, double adopt_probability, bool shared) {
  const core::Params resolved =
      params.has_value() ? *params
                         : core::Params::from_hints(prototype.tuning(),
                                                    prototype.num_variables());
  const core::AdaptiveSearch engine(resolved);
  const util::RngStreamFactory streams(master_seed);
  std::vector<std::unique_ptr<ElitePool>> slots;
  const std::size_t count = shared ? 1 : num_walkers;
  for (std::size_t i = 0; i < count; ++i) {
    slots.push_back(std::make_unique<ElitePool>());
  }
  std::vector<core::Result> results;
  results.reserve(num_walkers);
  for (std::size_t id = 0; id < num_walkers; ++id) {
    auto problem = prototype.clone();
    util::Xoshiro256 rng = streams.stream(id);
    ElitePool* publish = shared ? slots.front().get() : slots[id].get();
    ElitePool* adopt =
        shared ? slots.front().get()
               : slots[(id + num_walkers - 1) % num_walkers].get();
    core::Hooks hooks;
    hooks.observer_period = period;
    hooks.observer = [publish](std::uint64_t, csp::Cost cost,
                               std::span<const int> values) {
      publish->offer(0, cost, values);
    };
    hooks.on_reset = [adopt, p = adopt_probability](csp::Problem& p_,
                                                    util::Xoshiro256& r) {
      if (!r.chance(p)) return false;
      std::vector<int> elite;
      const csp::Cost cost = adopt->take_if_better(0, p_.total_cost(), elite);
      if (cost == csp::kInfiniteCost) return false;
      p_.assign(elite);
      return true;
    };
    results.push_back(engine.solve(*problem, rng, core::StopToken{}, hooks));
  }
  return results;
}

/// Communication actually fires on this configuration (unsolvable instance,
/// small budget, frequent exchange), so identity here pins the exchange
/// wiring, not just the no-op path.
WalkerPoolOptions exchanging_options(Neighborhood neighborhood,
                                     Exchange exchange) {
  problems::Langford langford(5);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(4, 13);
  pool.params = params;
  pool.communication.neighborhood = neighborhood;
  pool.communication.exchange = exchange;
  pool.communication.period = 100;
  pool.communication.adopt_probability = 0.5;
  return pool;
}

void expect_matches_reference(const MultiWalkReport& report,
                              const std::vector<core::Result>& reference) {
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report.walkers[i].result.solved, reference[i].solved)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.cost, reference[i].cost)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.solution, reference[i].solution)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.stats.iterations,
              reference[i].stats.iterations)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.stats.resets,
              reference[i].stats.resets)
        << "walker " << i;
  }
}

TEST(WalkerPoolEquivalence, SharedEliteViaNewApiReproducesPr1Trajectories) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kComplete, Exchange::kElite);
  const auto reference = reference_elite_walks(
      langford, pool.num_walkers, pool.master_seed, pool.params,
      pool.communication.period, pool.communication.adopt_probability,
      /*shared=*/true);
  expect_matches_reference(WalkerPool(pool).run(langford), reference);
}

TEST(WalkerPoolEquivalence, RingEliteViaNewApiReproducesPr1Trajectories) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kRing, Exchange::kElite);
  const auto reference = reference_elite_walks(
      langford, pool.num_walkers, pool.master_seed, pool.params,
      pool.communication.period, pool.communication.adopt_probability,
      /*shared=*/false);
  expect_matches_reference(WalkerPool(pool).run(langford), reference);
}

// --- The new neighbourhoods and exchange strategies ---------------------

/// The iteration at which walker `id` of `pool` solves when no migrant
/// ever reaches it (UINT64_MAX if it does not solve): the pool's engine
/// parameters and RNG stream, with the communication hook's adoption gate
/// reduced to what it does when every in-neighbour slot is empty — one
/// chance() draw per partial reset and no adoption.
std::uint64_t solo_solve_iteration(const csp::Problem& prototype,
                                   const WalkerPoolOptions& pool,
                                   std::size_t id) {
  const core::AdaptiveSearch engine(core::Params::from_hints(
      prototype.tuning(), prototype.num_variables()));
  auto problem = prototype.clone();
  util::Xoshiro256 rng = util::RngStreamFactory(pool.master_seed).stream(id);
  core::Hooks hooks;
  hooks.on_reset = [p = pool.communication.adopt_probability](
                       csp::Problem&, util::Xoshiro256& r) {
    (void)r.chance(p);
    return false;
  };
  const core::Result result = engine.solve(*problem, rng, {}, hooks);
  return result.solved ? result.stats.iterations : UINT64_MAX;
}

TEST(WalkerPool, MigrationOnTorusSolvesThreaded) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 8;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kTorus;
  pool.communication.exchange = Exchange::kMigration;
  pool.communication.period = 10;
  pool.communication.adopt_probability = 0.5;
  // Precondition: no walker can solve on its own before its first publish
  // at iteration `period`.  A winner therefore either walked its own
  // trajectory past that publish or adopted a migrant someone published —
  // either way the race publishes, however the threads are scheduled.
  std::uint64_t earliest = UINT64_MAX;
  for (std::size_t id = 0; id < pool.num_walkers; ++id) {
    earliest = std::min(earliest, solo_solve_iteration(costas, pool, id));
  }
  ASSERT_LE(pool.communication.period, earliest);
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
  // Migration publishes unconditionally, but an overwrite that cannot be
  // refused is not an "accepted" offer — the counters stay apart.
  EXPECT_GT(report.comm_publishes, 0u);
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, DecayEliteOnHypercubeIsDeterministicSequentially) {
  problems::Langford langford(5);  // unsolvable: every walker runs its budget
  WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kHypercube, Exchange::kDecayElite);
  pool.communication.decay = 6;
  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.cost, b.walkers[i].result.cost);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
  EXPECT_EQ(a.elite_accepted, b.elite_accepted);
}

TEST(WalkerPool, MigrationIsDeterministicSequentially) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kTorus, Exchange::kMigration);
  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
}

// --- Option validation --------------------------------------------------

TEST(WalkerPoolValidation, DegenerateOptionsAreRejectedUpFront) {
  problems::Costas costas(8);
  const auto expect_rejected = [&costas](WalkerPoolOptions pool,
                                         const char* what) {
    try {
      (void)WalkerPool(std::move(pool)).run(costas);
      FAIL() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };

  WalkerPoolOptions zero_walkers;
  zero_walkers.num_walkers = 0;
  expect_rejected(zero_walkers, "num_walkers");

  // Fractions and probabilities outside [0, 1], NaN included.  A negative
  // reset fraction once reached the engine's float-to-size cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-1.0, 1.5, nan}) {
    WalkerPoolOptions params_pool;
    params_pool.params = core::Params::from_hints(costas.tuning(),
                                                  costas.num_variables());
    params_pool.params->reset_limit = 1;
    params_pool.params->reset_fraction = bad;
    expect_rejected(params_pool, "params.reset_fraction");
    params_pool.params->reset_fraction = 0.1;
    params_pool.params->prob_accept_plateau = bad;
    expect_rejected(params_pool, "params.prob_accept_plateau");
    params_pool.params->prob_accept_plateau = 1.0;
    params_pool.params->prob_accept_local_min = bad;
    expect_rejected(params_pool, "params.prob_accept_local_min");
  }

  WalkerPoolOptions zero_period;
  zero_period.communication.neighborhood = Neighborhood::kRing;
  zero_period.communication.exchange = Exchange::kElite;
  zero_period.communication.period = 0;
  expect_rejected(zero_period, "period");

  WalkerPoolOptions bad_adopt;
  bad_adopt.communication.neighborhood = Neighborhood::kRing;
  bad_adopt.communication.exchange = Exchange::kElite;
  bad_adopt.communication.adopt_probability = 1.5;
  expect_rejected(bad_adopt, "adopt_probability");

  WalkerPoolOptions isolated_exchange;
  isolated_exchange.communication.exchange = Exchange::kElite;
  expect_rejected(isolated_exchange, "isolated");

  WalkerPoolOptions decayless;
  decayless.communication.neighborhood = Neighborhood::kRing;
  decayless.communication.exchange = Exchange::kDecayElite;
  expect_rejected(decayless, "decay");

  WalkerPoolOptions elite_with_decay;
  elite_with_decay.communication.neighborhood = Neighborhood::kRing;
  elite_with_decay.communication.exchange = Exchange::kElite;
  elite_with_decay.communication.decay = 5;
  expect_rejected(elite_with_decay, "decay");
}

TEST(WalkerPoolValidation, IgnoredKnobsStayIgnoredWithoutExchange) {
  // The independent scheme historically ran with arbitrary knob values
  // (benches pass period 0); without an exchanging strategy they must keep
  // not mattering.
  problems::Costas costas(9);
  WalkerPoolOptions pool = sequential_options(2, 4);
  pool.communication.period = 0;
  pool.communication.adopt_probability = -3.0;
  const auto report = WalkerPool(pool).run(costas);
  EXPECT_EQ(report.walkers.size(), 2u);
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, ThreadedSchedulerShortCircuitsOnAFiredStopSource) {
  // The start gate on both threaded paths — collapsed to one OS thread
  // (max_threads = 1) and one thread per walker: once the external token
  // has fired, no walker pays a clone, an initial cost evaluation or an
  // iteration-0 sample.  Not-yet-started walkers report interrupted with
  // zero iterations and the cause their first poll would record, exactly
  // like the sequential scheduler's.  A raised chained flag (the service's
  // watchdog slot) is kChained, not a caller cancel, and leaves the report
  // uninterrupted.
  problems::Costas costas(10);
  std::atomic<bool> cancel{true};  // cancelled before the pool launches
  const auto expired = core::StopToken().expiring_at(
      core::StopToken::Clock::now() - std::chrono::milliseconds(10));
  const auto chained = core::StopToken().also_cancelled_by(&cancel);
  struct Case {
    std::size_t max_threads;
    core::StopToken stop;
    core::StopCause cause;
  };
  for (const Case& c : {Case{1, expired, core::StopCause::kDeadline},
                        Case{1, core::StopToken(&cancel),
                             core::StopCause::kCancel},
                        Case{1, chained, core::StopCause::kChained},
                        Case{0, expired, core::StopCause::kDeadline},
                        Case{0, core::StopToken(&cancel),
                             core::StopCause::kCancel},
                        Case{0, chained, core::StopCause::kChained}}) {
    SCOPED_TRACE("max_threads " + std::to_string(c.max_threads) + ", " +
                 std::string(core::kStopCauseNames.name(c.cause)));
    WalkerPoolOptions pool;
    pool.num_walkers = 4;
    pool.master_seed = 2;
    pool.scheduling = Scheduling::kThreads;
    pool.max_threads = c.max_threads;
    pool.termination = Termination::kBestAfterBudget;
    std::atomic<std::size_t> samples{0};
    pool.sample_sink = [&samples](std::size_t, std::uint64_t, csp::Cost) {
      samples.fetch_add(1);
    };
    pool.sample_sink_period = 1;
    const auto report = WalkerPool(pool).run(costas, c.stop);

    const bool external = c.cause != core::StopCause::kChained;
    EXPECT_EQ(report.interrupted, external);
    EXPECT_EQ(report.interrupt_cause,
              external ? c.cause : core::StopCause::kNone);
    ASSERT_EQ(report.walkers.size(), 4u);
    for (const auto& w : report.walkers) {
      EXPECT_TRUE(w.result.interrupted);
      EXPECT_EQ(w.result.stop_cause, c.cause);
      EXPECT_EQ(w.result.stats.iterations, 0u);  // never started walking
    }
    EXPECT_EQ(samples.load(), 0u);
  }
}

TEST(WalkerPool, CollapsedThreadedRaceShortCircuitsAfterInternalWinner) {
  // Same short-circuit for the pool's *own* completion flag: once a walker
  // of the collapsed (one-thread) race has won, the remaining walkers
  // would only run to their first poll and report kChained — they must be
  // marked so without paying a clone + initial cost evaluation each.
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 1;
  pool.scheduling = Scheduling::kThreads;
  pool.max_threads = 1;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);

  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  EXPECT_FALSE(report.interrupted);  // an internal win is not an interrupt
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kNone);
  for (const auto& w : report.walkers) {
    if (w.walker_id <= report.winner) continue;
    EXPECT_TRUE(w.result.interrupted);
    EXPECT_EQ(w.result.stop_cause, core::StopCause::kChained);
    EXPECT_EQ(w.result.stats.iterations, 0u);
  }
}

TEST(WalkerPool, SchedulingModesShareWalkerTrajectories) {
  // The sequential pool, the threaded race and the emulated race (a
  // sequential first-finisher pool) all draw walker i from stream i of the
  // master seed; the emulated winner's trajectory therefore appears
  // verbatim among the best-after-budget walkers.
  problems::Costas costas(9);
  const auto sequential = WalkerPool(sequential_options(3, 77)).run(costas);

  WalkerPoolOptions emulated_options = sequential_options(3, 77);
  emulated_options.termination = Termination::kFirstFinisher;
  const auto emulated = WalkerPool(emulated_options).run(costas);

  ASSERT_TRUE(emulated.solved);
  ASSERT_LT(emulated.winner, sequential.walkers.size());
  const auto& winner_seq = sequential.walkers[emulated.winner].result;
  EXPECT_EQ(emulated.best.stats.iterations, winner_seq.stats.iterations);
  EXPECT_EQ(emulated.best.solution, winner_seq.solution);
}

}  // namespace
}  // namespace cspls::parallel
