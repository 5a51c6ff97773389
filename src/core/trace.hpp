// Per-walker instrumentation record threaded through core::Hooks.
//
// A WalkerTrace is the observational counterpart of core::Result: where the
// Result reports *what* a walk concluded, the trace records *how it got
// there* — the behavioural counters plus an optional cost-over-time series
// sampled every `Hooks::trace_sample_period` iterations.  The parallel
// runtime (parallel::WalkerPool) fills one trace per walker when tracing is
// enabled; the simulator's runtime-distribution sampling (sim/) and the
// bench harnesses consume them.
//
// Recording never touches the walk's RNG stream, so enabling a trace cannot
// change the outcome of a seeded run — the property the scheduling-mode
// equivalence tests rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "csp/cost.hpp"

namespace cspls::core {

/// One point of the cost-over-time series: the total cost of the current
/// configuration at a given engine iteration.
struct TraceSample {
  std::uint64_t iteration = 0;
  csp::Cost cost = 0;

  [[nodiscard]] bool operator==(const TraceSample&) const = default;
};

/// Instrumentation record of one walk (one walker of a pool).
struct WalkerTrace {
  std::size_t walker_id = 0;

  bool solved = false;
  bool interrupted = false;  ///< cut short by the pool's stop signal

  std::uint64_t iterations = 0;
  std::uint64_t resets = 0;        ///< partial resets performed
  std::uint64_t restarts = 0;      ///< full restarts performed
  std::uint64_t local_minima = 0;  ///< local-minimum events

  double seconds = 0.0;                      ///< solo wall-clock of the walk
  csp::Cost best_cost = csp::kInfiniteCost;  ///< best cost ever reached

  /// Cost-over-time samples: one entry per `trace_sample_period` iterations
  /// (plus the initial configuration at iteration 0 and the final best), in
  /// non-decreasing iteration order.  Empty when sampling was disabled.
  std::vector<TraceSample> cost_samples;

  [[nodiscard]] bool operator==(const WalkerTrace&) const = default;
};

}  // namespace cspls::core
