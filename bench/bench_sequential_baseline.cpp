// Sequential baseline table (the EvoCOP'11 companion's Table-1 analogue):
// per-benchmark single-walk statistics of the Adaptive Search engine —
// runtime quantiles, iteration counts, and the engine's behavioural
// counters (local minima, resets, restarts).  This is the T(1) every
// speedup in Figures 1-3 is measured against.
#include <cstdio>

#include "common.hpp"
#include "core/adaptive_search.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/registry.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_sequential_baseline",
      "Sequential Adaptive Search statistics per benchmark (T(1) table)", 60);
  if (!options) return 0;

  bench::print_preamble(
      "Sequential baseline — single-walk Adaptive Search statistics",
      "All eight models of the suite (paper benchmarks first).");

  util::Table table({"benchmark", "vars", "solved", "med iters", "q90 iters",
                     "med ms", "mean ms", "q90 ms", "locmin/it", "resets/it"});
  std::vector<std::vector<std::string>> csv_rows;

  for (const auto& name : problems::problem_names()) {
    const auto spec = bench::spec_for(name, options->paper_scale);
    const auto prototype = problems::instantiate(spec);
    parallel::WalkerPoolOptions pool;
    pool.num_walkers = options->samples;
    pool.master_seed = options->seed;
    pool.scheduling = parallel::Scheduling::kSequential;
    pool.termination = parallel::Termination::kBestAfterBudget;
    const auto walks = options->samples == 0
                           ? std::vector<parallel::WalkerOutcome>{}
                           : parallel::WalkerPool(pool).run(*prototype).walkers;

    std::vector<double> iters, ms;
    double locmin = 0.0, resets = 0.0, total_iters = 0.0;
    std::size_t solved = 0;
    for (const auto& w : walks) {
      if (!w.result.solved) continue;
      ++solved;
      iters.push_back(static_cast<double>(w.result.stats.iterations));
      ms.push_back(w.result.stats.seconds * 1e3);
      locmin += static_cast<double>(w.result.stats.local_minima);
      resets += static_cast<double>(w.result.stats.resets);
      total_iters += static_cast<double>(w.result.stats.iterations);
    }
    table.add_row(
        {bench::label(spec), std::to_string(prototype->num_variables()),
         std::to_string(solved) + "/" + std::to_string(walks.size()),
         util::Table::num(util::quantile(iters, 0.5), 0),
         util::Table::num(util::quantile(iters, 0.9), 0),
         util::Table::num(util::quantile(ms, 0.5), 2),
         util::Table::num(util::mean(ms), 2),
         util::Table::num(util::quantile(ms, 0.9), 2),
         util::Table::num(total_iters > 0 ? locmin / total_iters : 0.0, 3),
         util::Table::num(total_iters > 0 ? resets / total_iters : 0.0, 4)});
    csv_rows.push_back({bench::label(spec),
                        util::Table::num(util::quantile(iters, 0.5), 0),
                        util::Table::num(util::quantile(ms, 0.5), 3),
                        util::Table::num(util::mean(ms), 3)});
  }

  std::printf("%s\n", table.render("Single-walk statistics (" +
                                   std::to_string(options->samples) +
                                   " seeded walks each)")
                          .c_str());
  std::printf(
      "Heavy tails (mean >> median) are what independent multi-walk\n"
      "parallelism converts into speedup; compare the ms columns.\n");

  util::CsvWriter csv(options->csv_prefix + "table.csv");
  csv.write_all({"benchmark", "median_iters", "median_ms", "mean_ms"},
                csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
