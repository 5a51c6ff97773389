// Collection of single-walk runtime samples by running the real solver.
//
// These samples are the simulator's ground truth: every speedup figure is
// computed from the empirical law of the *actual* Adaptive Search engine on
// the actual benchmark model, never from an assumed law.  Walks are metered
// both in wall-clock seconds and in engine iterations; the iteration
// metering is noise-free on a shared/throttled host and converts to
// platform seconds through the measured cost-per-iteration.
//
// Sampling runs on the unified parallel runtime: one sequential WalkerPool,
// one walker per sample, walker i on RNG stream i of the master seed — the
// exact streams the racing engine would use, which is what makes offline
// min-of-k analysis of these samples equivalent to the racing version.
// Each sample reads its walker's core::Result.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "csp/problem.hpp"
#include "sim/order_stats.hpp"

namespace cspls::sim {

struct SamplingOptions {
  std::size_t num_samples = 100;
  std::uint64_t master_seed = 0xA11CE;
  /// Engine parameters; default = the model's tuning hints with a generous
  /// restart budget so nearly every walk terminates with a solution.
  std::optional<core::Params> params;
};

struct WalkSample {
  bool solved = false;
  double seconds = 0.0;
  std::uint64_t iterations = 0;
};

struct SampleSet {
  std::vector<WalkSample> samples;

  /// Distribution of wall-clock runtimes of the solved walks.
  [[nodiscard]] EmpiricalDistribution seconds_distribution() const;
  /// Distribution of iteration counts of the solved walks.
  [[nodiscard]] EmpiricalDistribution iterations_distribution() const;
  [[nodiscard]] double solve_rate() const;
  /// Mean seconds per engine iteration across all walks (calibration).
  [[nodiscard]] double seconds_per_iteration() const;
};

/// Run `num_samples` independent seeded walks of the real engine on clones
/// of `prototype` and record their runtimes.  Deterministic in master_seed
/// up to wall-clock jitter (iteration counts are exactly reproducible).
[[nodiscard]] SampleSet collect_walk_samples(const csp::Problem& prototype,
                                             const SamplingOptions& options);

}  // namespace cspls::sim
