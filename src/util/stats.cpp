#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace cspls::util {

double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> values, double p) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, p);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

LinearFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  if (xs.size() != ys.size() || xs.size() < 2) return fit;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace cspls::util
