#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// Nearest rank of percentile `p` in a sample of `n` (1-based), with a
/// tolerance so that, e.g., 0.99 * 1000 is rank 990 despite rounding.
std::size_t rank_of(double p, std::size_t n) {
  const double exact = std::clamp(p, 0.0, 1.0) * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[rank_of(p, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail(std::vector<double> values, double p) {
  Tail out;
  const std::size_t n = values.size();
  out.samples = n;
  if (n <= kTailSamples) {
    out.percentile = 0.5;
    out.value = percentile(std::move(values), 0.5);
    return out;
  }
  const std::size_t rank = std::min(rank_of(p, n), n - kTailSamples);
  std::sort(values.begin(), values.end());
  out.value = values[rank - 1];
  out.percentile = rank == rank_of(p, n)
                       ? p
                       : static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

Tail block_tail(const std::vector<double>& in_order, double p) {
  const double per_block =
      std::ceil(static_cast<double>(kTailSamples) / std::max(1.0 - p, 1e-9) -
                1e-9);
  auto blocks = static_cast<std::size_t>(
      static_cast<double>(in_order.size()) / per_block);
  if (blocks % 2 == 0 && blocks > 0) --blocks;
  if (blocks < 3) return tail(in_order, p);
  std::vector<double> tails;
  const std::size_t n = in_order.size();
  for (std::size_t b = 0; b < blocks; ++b) {
    tails.push_back(tail(std::vector<double>(in_order.begin() + b * n / blocks,
                                             in_order.begin() + (b + 1) * n / blocks),
                         p)
                        .value);
  }
  Tail out;
  out.value = median(std::move(tails));
  out.percentile = p;
  out.samples = n;
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& child : spans) {
    const auto parent = index_of.find(child.parent);
    if (child.parent == 0 || parent == index_of.end()) continue;
    const Span& p = spans[parent->second];
    const double lo = std::max(child.start_ms, p.start_ms);
    const double hi = std::min(child.end_ms, p.end_ms);
    if (hi > lo) covered[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    double union_ms = 0.0;
    double run_lo = 0.0;
    double run_hi = -kMiss;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ms += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ms += run_hi - run_lo;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - union_ms;
  }
  return self;
}

double RateLadder::rate(int rung) const {
  return base * std::pow(ratio, rung);
}

int RateLadder::rung_at_or_below(double offered) const {
  int best = -1;
  for (int i = 0; i < rungs; ++i) {
    if (rate(i) <= offered * (1.0 + 1e-9)) best = i;
  }
  return best;
}

bool meets_slo(const StepOutcome& step, double limit_ms) {
  return !step.generator_behind && !step.backlog_grew &&
         step.high_p99_ms <= limit_ms;
}

int search_max_rung(int rungs, int known_pass,
                    const std::function<bool(int)>& passes,
                    const std::function<bool()>& budget_left) {
  int lo = known_pass;  // highest rung verified to pass
  int hi = rungs;       // lowest rung verified to fail (rungs = none yet)
  while (hi - lo > 1 && budget_left()) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
