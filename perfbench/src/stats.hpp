// The benchmark's own arithmetic: percentiles under the tail rule, span
// self time, and the max-rate-at-SLO search over a fixed rate ladder.  Kept
// free of any cspls dependency so tests/stats_test.cpp can pin it down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Latency recorded for a request that failed or was refused: it misses
/// every latency limit and sorts above every real sample.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile, `p` in [0, 1]: the smallest sample with at
/// least p * n samples at or below it.  NaN for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// A tail percentile reported under the tail rule.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported
  std::size_t samples = 0;
};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The tail rule: the highest percentile <= `p` with at least kTailSamples
/// samples beyond it.  A sample too small to support any tail reports its
/// median.
[[nodiscard]] Tail tail(std::vector<double> values, double p);

/// A tail robust to transient host stalls: the samples, in the order they
/// were taken, are cut into the largest odd number of consecutive blocks
/// that each support `p` under the tail rule, and the median of the
/// blocks' tails is reported.  A sample too small for two blocks reports
/// tail(values, p).
[[nodiscard]] Tail block_tail(const std::vector<double>& in_order, double p);

/// One traced interval.  Spans of one request share `request`; `parent` is
/// the id of the span that caused this one (0 = a root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that the union of its children's intervals covers.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// The rate ladder behind max_rate_at_slo: rung i offers base * ratio^i.
struct RateLadder {
  double base = 0.0;
  double ratio = 1.0;
  int rungs = 0;

  [[nodiscard]] double rate(int rung) const;
  /// Highest rung whose rate is <= `rate` (-1 when below the ladder).
  [[nodiscard]] int rung_at_or_below(double rate) const;
};

/// What one ladder step measured.
struct StepOutcome {
  double high_p99_ms = kMiss;
  bool backlog_grew = false;
  bool generator_behind = false;
};

/// A step meets the SLO when the high-lane p99 is within the limit, the
/// backlog did not grow and the generator kept its schedule (a late
/// generator makes the step invalid, never a pass).
[[nodiscard]] bool meets_slo(const StepOutcome& step, double limit_ms);

/// Highest rung in [0, rungs) that passes, by bisection: success is taken
/// to be monotone in the offered rate.  `known_pass` is a rung already
/// known to pass (-1 = none); `passes` is called once per rung tested, and
/// `budget_left` is asked before each test (a search out of time returns
/// the best rung verified so far).  Returns -1 when no rung passes.
[[nodiscard]] int search_max_rung(int rungs, int known_pass,
                                  const std::function<bool(int)>& passes,
                                  const std::function<bool()>& budget_left);

}  // namespace perfbench
