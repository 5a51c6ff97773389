#include "common.hpp"

#include <cstdio>

#include "problems/registry.hpp"
#include "problems/spec.hpp"
#include "util/timer.hpp"

namespace cspls::bench {

namespace {

/// Instance seed of generated instances when a spec names none.
constexpr std::uint64_t kInstanceSeed = 7;

}  // namespace

std::string label(const problems::ProblemSpec& spec) {
  if (spec.name == "perfect-square" && spec.size == 0) {
    return spec.name + "(order-21)";
  }
  return spec.name + "(" + std::to_string(spec.size) + ")";
}

std::vector<problems::ProblemSpec> paper_suite(bool paper_scale) {
  std::vector<problems::ProblemSpec> suite;
  for (const auto& name : problems::paper_benchmarks()) {
    suite.push_back(spec_for(name, paper_scale));
  }
  return suite;
}

problems::ProblemSpec spec_for(const std::string& name, bool paper_scale) {
  problems::ProblemSpec spec{.instance_seed = kInstanceSeed};
  if (name.find(':') != std::string::npos ||
      name.find('@') != std::string::npos) {
    const problems::ProblemSpec parsed = problems::parse_spec(name);
    spec.name = parsed.name;
    // An explicit ":size" wins; a seed-only spec ("costas@7") still sizes
    // by the requested scale like a bare name would.
    spec.size = name.find(':') != std::string::npos
                    ? parsed.size
                    : (paper_scale ? problems::paper_size(parsed.name)
                                   : problems::bench_size(parsed.name));
    if (parsed.instance_seed != 0) spec.instance_seed = parsed.instance_seed;
    return spec;
  }
  if (!problems::is_known_problem(name)) {
    // Reject with the name-listing diagnostic instead of the bench_size
    // lookup's terser failure.
    (void)problems::parse_spec(name);
  }
  spec.name = name;
  spec.size =
      paper_scale ? problems::paper_size(name) : problems::bench_size(name);
  return spec;
}

WalkLaw measure_walk_law(const problems::ProblemSpec& spec,
                         std::size_t samples, std::uint64_t seed) {
  const auto prototype = problems::instantiate(spec);
  sim::SamplingOptions options;
  options.num_samples = samples;
  options.master_seed = seed;
  util::Stopwatch watch;
  const sim::SampleSet set = sim::collect_walk_samples(*prototype, options);

  WalkLaw law;
  law.solve_rate = set.solve_rate();
  law.sec_per_iter = set.seconds_per_iteration();
  law.samples = samples;
  // Work in iterations scaled to host-seconds: iteration counts are exactly
  // reproducible, and the scale factor re-attaches wall-clock units so that
  // platform overheads (absolute seconds) are comparable.
  const auto iters = set.iterations_distribution();
  std::vector<double> seconds(iters.sorted_samples().begin(),
                              iters.sorted_samples().end());
  for (auto& s : seconds) s *= law.sec_per_iter;
  law.seconds = sim::EmpiricalDistribution(std::move(seconds));

  std::fprintf(stderr,
               "[sample] %-22s %zu walks in %s  solve_rate=%.3f  "
               "median=%.4fs  mean=%.4fs  max=%.4fs\n",
               label(spec).c_str(), samples,
               util::format_duration(watch.elapsed_seconds()).c_str(),
               law.solve_rate, law.seconds.median(), law.seconds.mean(),
               law.seconds.max());
  return law;
}

double paper_reference_median_seconds(const std::string& name) {
  // Paper-era sequential medians (order of magnitude; see EXPERIMENTS.md):
  // CAP n=22 takes "many hours" sequentially and ~1 minute on 256 cores;
  // perfect-square finishes sub-second at 128/256 cores with speedup ~40+,
  // so its sequential runs sit around tens of seconds; magic-square 200x200
  // and all-interval 700 sit in the tens-of-minutes band.
  if (name == "costas") return 10'000.0;
  if (name == "all-interval") return 1'500.0;
  if (name == "magic-square") return 800.0;
  if (name == "perfect-square") return 40.0;
  return 600.0;  // other models: generic paper-era scale
}

WalkLaw rescale_to_median(WalkLaw law, double target_median) {
  const double median = law.seconds.median();
  if (median <= 0.0 || target_median <= 0.0) return law;
  const double factor = target_median / median;
  std::vector<double> scaled(law.seconds.sorted_samples().begin(),
                             law.seconds.sorted_samples().end());
  for (auto& s : scaled) s *= factor;
  law.seconds = sim::EmpiricalDistribution(std::move(scaled));
  law.rescale_factor *= factor;
  return law;
}

util::Table make_curve_table() {
  return util::Table({"cores", "E[T] (s)", "q10 (s)", "q90 (s)", "speedup"});
}

void append_curve_rows(const sim::SpeedupCurve& curve, util::Table& table,
                       std::vector<std::vector<std::string>>* csv_rows) {
  for (const auto& p : curve.points) {
    table.add_row({std::to_string(p.cores), util::Table::sig(p.expected_seconds, 4),
                   util::Table::sig(p.q10_seconds, 4),
                   util::Table::sig(p.q90_seconds, 4),
                   util::Table::num(p.speedup, 2)});
    if (csv_rows != nullptr) {
      csv_rows->push_back({curve.platform, curve.benchmark,
                           std::to_string(p.cores),
                           util::Table::sig(p.expected_seconds, 6),
                           util::Table::num(p.speedup, 4)});
    }
  }
}

util::Table make_figure_table(const std::vector<sim::SpeedupCurve>& curves) {
  std::vector<std::string> headers{"cores"};
  for (const auto& curve : curves) headers.push_back(curve.benchmark);
  headers.push_back("ideal");
  util::Table table(std::move(headers));
  if (curves.empty()) return table;
  for (std::size_t i = 0; i < curves.front().points.size(); ++i) {
    std::vector<std::string> row{
        std::to_string(curves.front().points[i].cores)};
    for (const auto& curve : curves) {
      row.push_back(util::Table::num(curve.points[i].speedup, 1));
    }
    row.push_back(std::to_string(curves.front().points[i].cores));
    table.add_row(std::move(row));
  }
  return table;
}

void print_preamble(const std::string& experiment_id,
                    const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n\n");
}

std::optional<HarnessOptions> parse_harness_options(
    int argc, const char* const* argv, const std::string& program,
    const std::string& description, std::size_t default_samples) {
  util::ArgParser parser(program, description);
  parser.add_int("samples", static_cast<std::int64_t>(default_samples),
                 "independent single-walk samples per benchmark");
  parser.add_uint64("seed", 0xC5B15, "master seed for sampling streams");
  parser.add_flag("paper-scale",
                  "use the paper's instance sizes (hours of sampling!)");
  parser.add_flag("raw-times",
                  "keep raw host seconds instead of paper-scale units");
  parser.add_flag("quick", "CI smoke mode: tiny instances, minimal reps");
  parser.add_string("csv", "", "CSV output prefix (default: <program>_)");
  if (!parser.parse(argc, argv)) return std::nullopt;
  HarnessOptions options;
  options.samples = static_cast<std::size_t>(parser.get_int("samples"));
  options.seed = parser.get_uint64("seed");
  options.paper_scale = parser.flag("paper-scale");
  options.raw_times = parser.flag("raw-times");
  options.quick = parser.flag("quick");
  options.csv_prefix = parser.get_string("csv").empty()
                           ? "csv/" + program + "_"
                           : parser.get_string("csv");
  return options;
}

}  // namespace cspls::bench
