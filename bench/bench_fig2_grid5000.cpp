// Figure 2 — "speedups on Grid5000 (Suno)": same four benchmarks on the
// Grid'5000 platform models.  The paper notes (a) Suno and Helios curves are
// nearly identical (it plots only Suno), and (b) perfect-square diverges
// from HA8000 at 128/256 cores because runs get shorter than a second and
// "some other mechanisms interfere" — with fixed per-job overheads dwarfing
// sub-second compute, exactly what the overhead terms of the platform
// models produce.  This harness prints the Suno figure plus both checks.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_fig2_grid5000",
      "Reproduces Fig. 2: multi-walk speedups on Grid'5000 Suno (+ Helios "
      "check)",
      250);
  if (!options) return 0;

  bench::print_preamble(
      "Figure 2 — speedups on Grid5000 (Suno)",
      "Speedup = T(1)/T(k) per platform model; Helios plotted only as the\n"
      "consistency check the paper reports.");

  const auto suno = sim::grid5000_suno();
  const auto helios = sim::grid5000_helios();
  const auto cores = sim::paper_core_grid();

  std::vector<sim::SpeedupCurve> suno_curves;
  std::vector<sim::SpeedupCurve> suno_fit_curves;
  std::vector<std::vector<std::string>> csv_rows;
  double worst_rel_gap = 0.0;
  std::string worst_case;

  for (const auto& spec : bench::paper_suite(options->paper_scale)) {
    const std::string label = bench::label(spec);
    auto law = bench::measure_walk_law(spec, options->samples, options->seed);
    if (!options->raw_times) {
      law = bench::rescale_to_median(
          law, bench::paper_reference_median_seconds(spec.name));
    }
    auto suno_curve =
        sim::compute_speedup_curve(law.seconds, suno, cores, label);
    const auto helios_curve =
        sim::compute_speedup_curve(law.seconds, helios, cores, label);
    suno_fit_curves.push_back(sim::compute_fit_speedup_curve(
        sim::fit_shifted_exponential(law.seconds), suno, cores, label));

    auto table = bench::make_curve_table();
    bench::append_curve_rows(suno_curve, table, &csv_rows);
    std::printf("%s", table.render(label + " on " + suno.name).c_str());

    // Suno ≈ Helios check (the paper's justification for plotting one).
    for (std::size_t i = 0; i < suno_curve.points.size(); ++i) {
      const double a = suno_curve.points[i].speedup;
      const double b = helios_curve.points[i].speedup;
      const double gap = std::abs(a - b) / std::max(a, b);
      if (gap > worst_rel_gap) {
        worst_rel_gap = gap;
        worst_case = label + " @" +
                     std::to_string(suno_curve.points[i].cores) + " cores";
      }
    }
    std::printf("\n");
    suno_curves.push_back(std::move(suno_curve));
  }

  std::printf("%s\n",
              bench::make_figure_table(suno_curves)
                  .render("Fig. 2 series — empirical min-of-k speedups (Suno)")
                  .c_str());
  std::printf("%s",
              bench::make_figure_table(suno_fit_curves)
                  .render("Fig. 2 series — shifted-exponential-fit speedups "
                          "(Suno, paper-regime)")
                  .c_str());

  std::printf(
      "\nSuno-vs-Helios consistency: worst relative speedup gap = %.1f%% "
      "(%s)\n",
      worst_rel_gap * 100.0, worst_case.c_str());
  std::printf(
      "(the paper: \"speedups on the two Grid'5000 platforms are nearly\n"
      " identical\" — only Suno is plotted)\n");

  util::CsvWriter csv(options->csv_prefix + "curves.csv");
  csv.write_all({"platform", "benchmark", "cores", "expected_seconds",
                 "speedup"},
                csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
