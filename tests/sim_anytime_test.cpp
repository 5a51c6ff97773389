// sim::anytime_curve — best-cost-after-budget aggregation over per-walker
// cost series: running minima per walker, pool minimum per budget, the
// budget-grid helper, and curves of real WalkerPool runs whose series come
// from the sample sink, as bench_ablation_communication builds them.
#include "sim/anytime.hpp"

#include <gtest/gtest.h>

#include "parallel/walker_pool.hpp"
#include "problems/costas.hpp"

namespace cspls::sim {
namespace {

using Series = std::vector<CostSample>;

struct SampledRun {
  parallel::MultiWalkReport report;
  std::vector<Series> series;
};

/// Runs `pool` with a period-50 sample sink into one series per walker —
/// each walker appends only to its own, so no lock — and closes the series
/// of every walker that walked and did not fail at its final best cost.
SampledRun run_sampled(parallel::WalkerPoolOptions pool,
                       const csp::Problem& problem) {
  SampledRun run;
  run.series.resize(pool.num_walkers);
  pool.sample_sink = [&run](std::size_t id, std::uint64_t iteration,
                            csp::Cost cost) {
    run.series[id].push_back({iteration, cost});
  };
  pool.sample_sink_period = 50;
  run.report = parallel::WalkerPool(pool).run(problem);
  for (const parallel::WalkerOutcome& w : run.report.walkers) {
    if (!run.series[w.walker_id].empty() && !w.failed()) {
      run.series[w.walker_id].push_back(
          {w.result.stats.iterations, w.result.cost});
    }
  }
  return run;
}

/// The anytime curve of `run` over its own `points`-budget grid.
std::vector<AnytimePoint> curve_of(const SampledRun& run, std::size_t points) {
  return anytime_curve(run.series, anytime_budget_grid(run.series, points));
}

TEST(AnytimeCurve, TakesRunningMinimaThenPoolMinimum) {
  // Walker 0 dips to 3 at iteration 100 and *rises* back to 9 (a reset);
  // walker 1 reaches 5 late.  The anytime value reports the best
  // configuration that could have been returned, not the current one.
  const std::vector<Series> walkers = {
      {{0, 20}, {100, 3}, {200, 9}},
      {{0, 18}, {150, 5}},
  };
  const std::vector<std::uint64_t> budgets = {0, 99, 100, 160, 500};
  const auto curve = anytime_curve(walkers, budgets);
  ASSERT_EQ(curve.size(), budgets.size());
  EXPECT_EQ(curve[0], (AnytimePoint{0, 18}));
  EXPECT_EQ(curve[1], (AnytimePoint{99, 18}));
  EXPECT_EQ(curve[2], (AnytimePoint{100, 3}));
  EXPECT_EQ(curve[3], (AnytimePoint{160, 3}));   // running min, despite {200, 9}
  EXPECT_EQ(curve[4], (AnytimePoint{500, 3}));
}

TEST(AnytimeCurve, WalkersWithoutSamplesContributeNothing) {
  const std::vector<Series> walkers = {
      {},
      {{50, 7}},
  };
  const std::vector<std::uint64_t> budgets = {10, 50};
  const auto curve = anytime_curve(walkers, budgets);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve[0].best_cost, csp::kInfiniteCost);  // nothing sampled yet
  EXPECT_EQ(curve[1].best_cost, 7);

  EXPECT_TRUE(anytime_curve({}, budgets)[0].best_cost == csp::kInfiniteCost);
}

TEST(AnytimeBudgetGrid, DoublesUpToTheLastSampledIteration) {
  const std::vector<Series> walkers = {
      {{0, 9}, {800, 2}},
      {{0, 9}, {100, 4}},
  };
  const auto grid = anytime_budget_grid(walkers, 4);
  EXPECT_EQ(grid, (std::vector<std::uint64_t>{100, 200, 400, 800}));
  // Degenerate inputs: no samples, or zero points.
  EXPECT_TRUE(anytime_budget_grid({}, 4).empty());
  EXPECT_TRUE(anytime_budget_grid(walkers, 0).empty());
  // Tiny ranges drop zero/duplicate budgets instead of emitting them.
  const std::vector<Series> tiny = {{{0, 3}, {2, 1}}};
  EXPECT_EQ(anytime_budget_grid(tiny, 4), (std::vector<std::uint64_t>{1, 2}));
}

TEST(AnytimeCurve, AllEmptyTracesYieldInfiniteEverywhere) {
  // A pool whose walkers recorded nothing (sampling off, or cut before the
  // first sample) must produce a well-formed all-infinite curve, not crash
  // or fabricate zeros.
  const std::vector<Series> walkers = {{}, {}, {}};
  const std::vector<std::uint64_t> budgets = {0, 10, 1'000};
  const auto curve = anytime_curve(walkers, budgets);
  ASSERT_EQ(curve.size(), budgets.size());
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    EXPECT_EQ(curve[b].budget, budgets[b]);
    EXPECT_EQ(curve[b].best_cost, csp::kInfiniteCost);
  }
  // And the grid over nothing is empty.
  EXPECT_TRUE(anytime_budget_grid(walkers, 8).empty());
}

TEST(AnytimeCurve, BudgetBelowEveryFirstSampleIsInfinite) {
  // Every walker's first sample lies beyond the queried budgets: no
  // configuration could have been returned yet at any of them.
  const std::vector<Series> walkers = {
      {{100, 5}, {200, 3}},
      {{150, 9}},
  };
  const std::vector<std::uint64_t> budgets = {0, 50, 99};
  const auto curve = anytime_curve(walkers, budgets);
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& point : curve) {
    EXPECT_EQ(point.best_cost, csp::kInfiniteCost);
  }
  // The first budget at or past a sample picks it up.
  EXPECT_EQ(anytime_curve(walkers, std::vector<std::uint64_t>{100})[0]
                .best_cost,
            5);
}

TEST(AnytimeBudgetGrid, SinglePointGridsAndSingleSampleTraces) {
  const std::vector<Series> walkers = {{{0, 9}, {800, 2}}};
  // points = 1: exactly the last sampled iteration.
  EXPECT_EQ(anytime_budget_grid(walkers, 1),
            (std::vector<std::uint64_t>{800}));
  // A lone sample at iteration 1 cannot halve: one budget, no zeros.
  const std::vector<Series> lone = {{{1, 4}}};
  EXPECT_EQ(anytime_budget_grid(lone, 4), (std::vector<std::uint64_t>{1}));
  // Samples only at iteration 0 span no budget range at all.
  const std::vector<Series> degenerate = {{{0, 4}}};
  EXPECT_TRUE(anytime_budget_grid(degenerate, 4).empty());
}

TEST(AnytimeCurve, SeparatesGossipFromOnResetRegimes) {
  // The ablation's mode comparison in miniature: the same population under
  // on-reset and async gossip gives two curves.  The pins are the curves
  // the engine's former per-walker trace recorder gave for these seeds.
  parallel::WalkerPoolOptions pool;
  pool.num_walkers = 3;
  pool.master_seed = 33;
  pool.scheduling = parallel::Scheduling::kSequential;
  pool.termination = parallel::Termination::kBestAfterBudget;
  pool.communication.neighborhood = parallel::Neighborhood::kRing;
  pool.communication.exchange = parallel::Exchange::kElite;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const problems::Costas costas9(9);
  const problems::Costas costas12(12);

  pool.communication.mode = parallel::CommMode::kOnReset;
  EXPECT_EQ(curve_of(run_sampled(pool, costas9), 5),
            (std::vector<AnytimePoint>{
                {6, 3}, {13, 3}, {27, 3}, {54, 0}, {108, 0}}));
  EXPECT_EQ(curve_of(run_sampled(pool, costas12), 6),
            (std::vector<AnytimePoint>{
                {21, 12}, {42, 12}, {85, 1}, {171, 1}, {343, 0}, {686, 0}}));

  pool.communication.mode = parallel::CommMode::kAsync;
  EXPECT_EQ(curve_of(run_sampled(pool, costas9), 5),
            (std::vector<AnytimePoint>{
                {13, 3}, {27, 3}, {54, 0}, {108, 0}, {217, 0}}));
}

TEST(AnytimeCurve, AgreesWithASampledPoolRun) {
  parallel::WalkerPoolOptions pool;
  pool.num_walkers = 3;
  pool.master_seed = 21;
  pool.scheduling = parallel::Scheduling::kSequential;
  pool.termination = parallel::Termination::kBestAfterBudget;
  const SampledRun run = run_sampled(pool, problems::Costas(9));
  // Pinned as the former trace recorder gave it; the full-budget point is
  // the pool's best outcome.
  const std::vector<AnytimePoint> curve = curve_of(run, 6);
  ASSERT_EQ(curve, (std::vector<AnytimePoint>{
                       {2, 3}, {4, 3}, {9, 3}, {18, 3}, {36, 0}, {72, 0}}));
  EXPECT_EQ(curve.back().best_cost, run.report.best.cost);
}

TEST(AnytimeCurve, ThreadedExchangingPoolFeedsPerWalkerSeries) {
  // The ablation harness's collection pattern on real threads (this suite
  // runs under TSan): four racing walkers gossip on a ring while the sink
  // appends to their own series without a lock.  The exchange period is
  // not the sample period, so the exchange's locks do not order the
  // walkers' sink calls: a sink sharing one vector is reported.
  parallel::WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 5;
  pool.scheduling = parallel::Scheduling::kThreads;
  pool.termination = parallel::Termination::kFirstFinisher;
  pool.communication.neighborhood = parallel::Neighborhood::kRing;
  pool.communication.exchange = parallel::Exchange::kElite;
  pool.communication.mode = parallel::CommMode::kAsync;
  pool.communication.period = 64;
  pool.communication.adopt_probability = 0.5;
  const SampledRun run = run_sampled(pool, problems::Costas(10));
  ASSERT_TRUE(run.report.solved);
  for (const parallel::WalkerOutcome& w : run.report.walkers) {
    const Series& series = run.series[w.walker_id];
    if (series.empty()) continue;  // stopped before it started
    // Samples every 50 iterations from 0, then the closing final best.
    for (std::size_t s = 0; s + 1 < series.size(); ++s) {
      EXPECT_EQ(series[s].iteration, 50 * s);
    }
    EXPECT_EQ(series.back().iteration, w.result.stats.iterations);
    EXPECT_EQ(series.back().cost, w.result.cost);
  }
  const std::vector<AnytimePoint> curve = curve_of(run, 8);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().best_cost, 0);
}

}  // namespace
}  // namespace cspls::sim
