// Shared support for the experiment harness binaries (bench_*).
//
// Every harness runs with no arguments (the reproduction driver executes
// them bare) and prints the paper's rows/series as aligned tables, mirrored
// to CSV files in the working directory.  README's "Reproducing the paper"
// maps each binary to its figure/table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "problems/spec.hpp"
#include "sim/order_stats.hpp"
#include "sim/platform.hpp"
#include "sim/sampling.hpp"
#include "sim/speedup.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace cspls::bench {

/// Table label of a benchmark instance: "costas(13)", and
/// "perfect-square(order-21)" for the Duijvestijn instance.
[[nodiscard]] std::string label(const problems::ProblemSpec& spec);

/// The paper's four benchmarks at harness scale (problems::bench_size) or
/// at the paper's own scale (--paper-scale: expect hours of sequential
/// sampling).
[[nodiscard]] std::vector<problems::ProblemSpec> paper_suite(
    bool paper_scale);

/// Single benchmark spec at harness scale.  Accepts either a bare name
/// ("costas", size chosen by scale) or a full problems::parse_spec string
/// ("costas:18", explicit size wins).  Generated instances (perfect-square
/// quadtrees) use instance seed 7 unless the string names one.  Throws
/// std::invalid_argument with the registry's diagnostic on unknown names.
[[nodiscard]] problems::ProblemSpec spec_for(const std::string& name,
                                             bool paper_scale = false);

/// The measured single-walk law of a spec, in estimated platform-seconds:
/// iteration counts (exact, reproducible) scaled by the measured
/// seconds-per-iteration of this host.  Logs a one-line summary to stderr.
struct WalkLaw {
  sim::EmpiricalDistribution seconds;
  double solve_rate = 0.0;
  double sec_per_iter = 0.0;
  std::size_t samples = 0;
  /// Applied paper-scale factor (1.0 when measuring raw host times).
  double rescale_factor = 1.0;
};
[[nodiscard]] WalkLaw measure_walk_law(const problems::ProblemSpec& spec,
                                       std::size_t samples, std::uint64_t seed);

/// Representative sequential single-walk median of the paper's *own*
/// instances, in seconds (EXPERIMENTS.md documents the provenance): the
/// figure harnesses rescale the measured law's median to this value so that
/// platform overheads (fixed seconds) keep the same proportion to compute
/// time as in the paper's runs.  The law's *shape* — which determines the
/// speedup curve — is untouched.
[[nodiscard]] double paper_reference_median_seconds(const std::string& name);

/// Rescale a measured law so its median equals `target_median` seconds.
[[nodiscard]] WalkLaw rescale_to_median(WalkLaw law, double target_median);

/// Append a speedup curve as rows "cores, E[T], q10, q90, speedup".
void append_curve_rows(const sim::SpeedupCurve& curve, util::Table& table,
                       std::vector<std::vector<std::string>>* csv_rows);

/// Standard header for the per-curve tables.
[[nodiscard]] util::Table make_curve_table();

/// Combined Fig-1/Fig-2-style table: rows = core counts, one speedup column
/// per benchmark curve (all curves must share the core grid).
[[nodiscard]] util::Table make_figure_table(
    const std::vector<sim::SpeedupCurve>& curves);

/// Print the standard preamble: what this binary reproduces and on what.
void print_preamble(const std::string& experiment_id,
                    const std::string& description);

/// Common CLI options shared by the figure harnesses.
struct HarnessOptions {
  std::size_t samples = 120;
  std::uint64_t seed = 0xC5B15;
  bool paper_scale = false;
  bool raw_times = false;  ///< disable the paper-scale time rescaling
  /// CI smoke mode: tiny instances, minimal repetitions, full output
  /// schema — the perf-smoke step validates the CSVs, not the numbers.
  bool quick = false;
  std::string csv_prefix;
};
[[nodiscard]] std::optional<HarnessOptions> parse_harness_options(
    int argc, const char* const* argv, const std::string& program,
    const std::string& description, std::size_t default_samples = 120);

}  // namespace cspls::bench
