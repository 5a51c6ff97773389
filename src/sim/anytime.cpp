#include "sim/anytime.hpp"

#include <algorithm>

namespace cspls::sim {

std::vector<AnytimePoint> anytime_curve(
    std::span<const std::vector<CostSample>> walkers,
    std::span<const std::uint64_t> budgets) {
  // Per-walker prefix minima over the (already iteration-sorted) samples,
  // so each budget query is one binary search per walker.
  struct PrefixMin {
    std::vector<std::uint64_t> iterations;
    std::vector<csp::Cost> best;
  };
  std::vector<PrefixMin> prefixes;
  prefixes.reserve(walkers.size());
  for (const std::vector<CostSample>& series : walkers) {
    if (series.empty()) continue;
    PrefixMin prefix;
    prefix.iterations.reserve(series.size());
    prefix.best.reserve(series.size());
    csp::Cost running = csp::kInfiniteCost;
    for (const CostSample& sample : series) {
      running = std::min(running, sample.cost);
      prefix.iterations.push_back(sample.iteration);
      prefix.best.push_back(running);
    }
    prefixes.push_back(std::move(prefix));
  }

  std::vector<AnytimePoint> curve;
  curve.reserve(budgets.size());
  for (const std::uint64_t budget : budgets) {
    AnytimePoint point;
    point.budget = budget;
    for (const PrefixMin& prefix : prefixes) {
      const auto it = std::upper_bound(prefix.iterations.begin(),
                                       prefix.iterations.end(), budget);
      if (it == prefix.iterations.begin()) continue;  // first sample > budget
      const std::size_t last =
          static_cast<std::size_t>(it - prefix.iterations.begin()) - 1;
      point.best_cost = std::min(point.best_cost, prefix.best[last]);
    }
    curve.push_back(point);
  }
  return curve;
}

std::vector<std::uint64_t> anytime_budget_grid(
    std::span<const std::vector<CostSample>> walkers, std::size_t points) {
  std::uint64_t max_iteration = 0;
  for (const std::vector<CostSample>& series : walkers) {
    if (series.empty()) continue;
    max_iteration = std::max(max_iteration, series.back().iteration);
  }
  std::vector<std::uint64_t> grid;
  if (max_iteration == 0 || points == 0) return grid;
  grid.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t shift = points - 1 - i;
    const std::uint64_t budget =
        shift >= 64 ? 0 : max_iteration >> shift;
    if (budget == 0) continue;
    if (!grid.empty() && grid.back() == budget) continue;
    grid.push_back(budget);
  }
  return grid;
}

}  // namespace cspls::sim
