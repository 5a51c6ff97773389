// Descriptive statistics for runtime-distribution analysis.
//
// The experiments in this repository are distribution-driven: the speedup of
// independent multi-walk parallelism is a pure function of the sequential
// runtime distribution (see sim/order_stats.hpp).  Everything here is small,
// allocation-light and exactly reproducible.
#pragma once

#include <span>

namespace cspls::util {

/// Linear-interpolation quantile (type-7, the numpy/R default) of a sample.
/// `p` in [0,1].  Input need not be sorted.
[[nodiscard]] double quantile(std::span<const double> values, double p);

/// Quantile of an already-sorted sample (no copy).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double p);

[[nodiscard]] double mean(std::span<const double> values);

/// Ordinary-least-squares fit y = a + b*x; returns {intercept a, slope b}.
/// Used to check the log-log slope of Fig. 3 (ideal speedup <=> slope 1).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
[[nodiscard]] LinearFit fit_line(std::span<const double> xs,
                                 std::span<const double> ys);

}  // namespace cspls::util
