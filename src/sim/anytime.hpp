// Anytime (best-cost-after-budget) aggregation over per-walker cost series.
//
// The paper's figures live in the first-finisher regime: the pool stops at
// the first solution and the metric is completion time.  Communication
// strategies, however, mostly reshape the *anytime* profile — how good the
// best configuration is after a given per-walker iteration budget — which
// first-finisher medians cannot see.  This module turns the cost-over-time
// series of a walker population into that profile: for each budget b, the
// lowest cost any walker of the pool had reached by iteration b.  A series
// is what WalkerPoolOptions::sample_sink received from one walker, closed
// with (Result::stats.iterations, Result::cost) once the walk returned.
//
// Costs are aggregated as running minima per walker before taking the pool
// minimum: a series records the *current* cost at each sample (resets can
// move it back up), while the anytime contract reports the best
// configuration that could have been returned at the cut-off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "csp/cost.hpp"

namespace cspls::sim {

/// One point of a walker's cost series: the total cost of its current
/// configuration at a given engine iteration.
struct CostSample {
  std::uint64_t iteration = 0;
  csp::Cost cost = 0;
};

/// One point of an anytime curve: the best cost any walker of the pool had
/// reached by `budget` iterations (csp::kInfiniteCost when no walker
/// recorded a sample at or before the budget).
struct AnytimePoint {
  std::uint64_t budget = 0;
  csp::Cost best_cost = csp::kInfiniteCost;

  [[nodiscard]] bool operator==(const AnytimePoint&) const = default;
};

/// Best-cost-after-budget aggregation across one pool of walkers, each a
/// cost series in non-decreasing iteration order: for each entry of
/// `budgets` (any order; echoed in the output), the minimum over walkers of
/// the running-minimum cost at or before that iteration.  Empty series
/// contribute nothing.
[[nodiscard]] std::vector<AnytimePoint> anytime_curve(
    std::span<const std::vector<CostSample>> walkers,
    std::span<const std::uint64_t> budgets);

/// A deterministic budget grid covering the series' sampled range: up to
/// `points` budgets doubling from max/2^(points-1) to the last sampled
/// iteration (zero and duplicate budgets dropped).  Empty when no walker
/// recorded samples.
[[nodiscard]] std::vector<std::uint64_t> anytime_budget_grid(
    std::span<const std::vector<CostSample>> walkers, std::size_t points);

}  // namespace cspls::sim
