// Figure 1 — "speedups on HA8000": speedup vs number of cores (1..256) for
// all-interval, perfect-square, magic-square and costas on the Hitachi
// HA8000 platform model.
//
// Pipeline: run the *real* Adaptive Search engine for N
// independent seeded walks per benchmark, take the empirical single-walk
// runtime law, and evaluate the independent multi-walk completion time
// min-of-k exactly on that law under the HA8000 platform model.
#include <cstdio>

#include "common.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_fig1_ha8000",
      "Reproduces Fig. 1: multi-walk speedups on HA8000 (1..256 cores)",
      250);
  if (!options) return 0;

  bench::print_preamble(
      "Figure 1 — speedups on HA8000",
      "Speedup = T(1)/T(k) on the HA8000 model; walk law measured with the\n"
      "real solver on scaled-down instances (5-60 ms median walks).");

  const auto platform = sim::ha8000();
  const auto cores = sim::paper_core_grid();
  std::vector<sim::SpeedupCurve> curves;
  std::vector<sim::SpeedupCurve> fit_curves;
  std::vector<std::vector<std::string>> csv_rows;

  for (const auto& spec : bench::paper_suite(options->paper_scale)) {
    const std::string label = bench::label(spec);
    auto law = bench::measure_walk_law(spec, options->samples, options->seed);
    if (!options->raw_times) {
      law = bench::rescale_to_median(
          law, bench::paper_reference_median_seconds(spec.name));
      std::printf("[paper-scale] %s median rescaled to %.0fs (x%.3g)\n",
                  label.c_str(), law.seconds.median(), law.rescale_factor);
    }
    auto curve =
        sim::compute_speedup_curve(law.seconds, platform, cores, label);
    const auto fit = sim::fit_shifted_exponential(law.seconds);
    auto fit_curve = sim::compute_fit_speedup_curve(fit, platform, cores, label);
    std::printf("[law] %s: shifted-exp fit KS=%.3f shift/mean=%.4f\n",
                label.c_str(), fit.ks_distance,
                fit.shift / law.seconds.mean());
    auto table = bench::make_curve_table();
    bench::append_curve_rows(curve, table, &csv_rows);
    std::printf("%s", table.render(label + " on " + platform.name).c_str());
    std::printf("\n");
    curves.push_back(std::move(curve));
    fit_curves.push_back(std::move(fit_curve));
  }

  std::printf("%s\n",
              bench::make_figure_table(curves)
                  .render("Fig. 1 series — empirical min-of-k speedups "
                          "(noisy once cores ~ sample count)")
                  .c_str());
  std::printf("%s",
              bench::make_figure_table(fit_curves)
                  .render("Fig. 1 series — shifted-exponential-fit speedups "
                          "(the paper-regime curve)")
                  .c_str());

  util::CsvWriter csv(options->csv_prefix + "curves.csv");
  csv.write_all({"platform", "benchmark", "cores", "expected_seconds",
                 "speedup"},
                csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
