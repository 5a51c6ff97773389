// Outcome of one Adaptive Search run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stop_token.hpp"
#include "csp/cost.hpp"

namespace cspls::core {

/// Per-run counters.  These are the numbers the paper's companion study
/// (EvoCOP'11) tabulates: iterations to solution, local minima encountered,
/// partial resets, full restarts.
struct RunStats {
  std::uint64_t iterations = 0;      ///< move-selection steps across restarts
  std::uint64_t swaps = 0;           ///< committed improving moves
  std::uint64_t plateau_moves = 0;   ///< committed non-improving moves
  std::uint64_t local_minima = 0;    ///< times the selected variable had none
  std::uint64_t resets = 0;          ///< partial resets performed
  std::uint64_t restarts = 0;        ///< full restarts performed
  std::uint64_t cost_evaluations = 0;///< swap candidates evaluated (counted
                                     ///< inside Problem::best_swap_for)
  double seconds = 0.0;              ///< wall-clock of the walk

  [[nodiscard]] bool operator==(const RunStats&) const = default;
};

/// Result of a (possibly restarted) walk.
struct Result {
  bool solved = false;
  csp::Cost cost = csp::kInfiniteCost;  ///< best cost reached
  std::vector<int> solution;            ///< best configuration reached
  RunStats stats;

  /// True when the run was cut short by a stop signal (another walker
  /// finished first, a cancellation, or a deadline) rather than by its own
  /// budget.
  bool interrupted = false;

  /// Which stop source cut the run short (kNone when not interrupted).
  /// Recorded by the poll that observed the stop, so attribution is exact.
  StopCause stop_cause = StopCause::kNone;

  /// Non-empty iff stop_cause == StopCause::kFailed: the message of the
  /// exception that killed the walk (captured by the pool's containment).
  std::string error;

  [[nodiscard]] bool operator==(const Result&) const = default;
};

}  // namespace cspls::core
