// Ablation 2 — Adaptive Search mechanism ablations.
//
// The engine combines four escape mechanisms: variable freezing (tabu),
// partial resets, plateau walking and worsening-move acceptance.  This
// harness disables each in turn on two representative landscapes (costas:
// descent+perturbation regime; magic-square: plateau regime) and measures
// the median/solve-rate impact — the quantitative version of the per-model
// tuning notes in each model's tuning().
#include <cstdio>

#include "common.hpp"
#include "core/adaptive_search.hpp"
#include "parallel/policy_names.hpp"
#include "parallel/walker_pool.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

/// One budgeted walk per sample, run through the sequential WalkerPool.
std::vector<cspls::parallel::WalkerOutcome> sequential_walks(
    const cspls::csp::Problem& prototype, std::size_t samples,
    std::uint64_t seed, const cspls::core::Params& params) {
  if (samples == 0) return {};
  cspls::parallel::WalkerPoolOptions pool;
  pool.num_walkers = samples;
  pool.master_seed = seed;
  pool.params = params;
  pool.scheduling = cspls::parallel::Scheduling::kSequential;
  pool.termination = cspls::parallel::Termination::kBestAfterBudget;
  return cspls::parallel::WalkerPool(pool).run(prototype).walkers;
}

struct Variant {
  const char* label;
  void (*mutate)(cspls::core::Params&);
};

const Variant kVariants[] = {
    {"default (tuned)", [](cspls::core::Params&) {}},
    {"no tabu (freeze=0)",
     [](cspls::core::Params& p) {
       p.freeze_loc_min = 0;
       p.freeze_swap = 0;
     }},
    {"no resets",
     [](cspls::core::Params& p) { p.reset_limit = UINT32_MAX; }},
    {"no plateau walk",
     [](cspls::core::Params& p) { p.prob_accept_plateau = 0.0; }},
    {"no worsening moves",
     [](cspls::core::Params& p) { p.prob_accept_local_min = 0.0; }},
    {"aggressive resets (limit=1)",
     [](cspls::core::Params& p) { p.reset_limit = 1; }},
    {"huge reset fraction (0.8)",
     [](cspls::core::Params& p) { p.reset_fraction = 0.8; }},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_ablation_params",
      "Ablation: Adaptive Search mechanism knock-outs", 24);
  if (!options) return 0;

  bench::print_preamble(
      "Ablation 2 — engine mechanism knock-outs",
      "Median single-walk effort with each mechanism disabled "
      "(budgeted walks; '-' = never solved).");

  std::vector<std::vector<std::string>> csv_rows;
  for (const char* name : {"costas", "magic-square"}) {
    const auto spec = bench::spec_for(name, false);
    const auto prototype = problems::instantiate(spec);
    const auto tuned = core::Params::from_hints(prototype->tuning(),
                                                prototype->num_variables());

    util::Table table(
        {"variant", "solved", "med iters", "q90 iters", "med ms"});
    for (const auto& variant : kVariants) {
      core::Params params = tuned;
      variant.mutate(params);
      params.max_restarts = 0;  // one budgeted walk per sample
      // Knocked-out variants may never solve; bound each walk so the
      // harness terminates (the solved column then reads the damage).
      params.restart_limit =
          std::min<std::uint64_t>(params.restart_limit, 60'000);
      const auto walks =
          sequential_walks(*prototype, options->samples, options->seed, params);
      std::vector<double> iters, ms;
      int solved = 0;
      for (const auto& w : walks) {
        if (!w.result.solved) continue;
        ++solved;
        iters.push_back(static_cast<double>(w.result.stats.iterations));
        ms.push_back(w.result.stats.seconds * 1e3);
      }
      const bool any = solved > 0;
      table.add_row({variant.label,
                     std::to_string(solved) + "/" +
                         std::to_string(options->samples),
                     any ? util::Table::num(util::quantile(iters, 0.5), 0)
                         : "-",
                     any ? util::Table::num(util::quantile(iters, 0.9), 0)
                         : "-",
                     any ? util::Table::num(util::quantile(ms, 0.5), 2)
                         : "-"});
      csv_rows.push_back({bench::label(spec), variant.label,
                          std::to_string(solved),
                          any ? util::Table::num(util::quantile(iters, 0.5), 0)
                              : ""});
    }
    std::printf("%s\n", table.render(bench::label(spec)).c_str());
  }

  // --- Restart-schedule comparison (fixed vs Luby) with restarts on. ------
  for (const char* name : {"costas", "magic-square"}) {
    const auto spec = bench::spec_for(name, false);
    const auto prototype = problems::instantiate(spec);
    const auto tuned = core::Params::from_hints(prototype->tuning(),
                                                prototype->num_variables());
    util::Table table({"schedule", "base budget", "solved", "med iters",
                       "q90 iters"});
    for (const auto schedule :
         {core::RestartSchedule::kFixed, core::RestartSchedule::kLuby}) {
      core::Params params = tuned;
      params.restart_schedule = schedule;
      // A deliberately tight base budget: the regime where the schedule
      // matters (with a generous budget both behave identically).
      params.restart_limit = 2'000;
      params.max_restarts = 200;
      const auto walks =
          sequential_walks(*prototype, options->samples, options->seed, params);
      std::vector<double> iters;
      int solved = 0;
      for (const auto& w : walks) {
        if (!w.result.solved) continue;
        ++solved;
        iters.push_back(static_cast<double>(w.result.stats.iterations));
      }
      table.add_row({std::string(parallel::name_of(schedule)),
                     "2000",
                     std::to_string(solved) + "/" +
                         std::to_string(options->samples),
                     util::Table::num(util::quantile(iters, 0.5), 0),
                     util::Table::num(util::quantile(iters, 0.9), 0)});
    }
    std::printf(
        "%s\n",
        table.render(bench::label(spec) + " — restart schedule").c_str());
  }

  std::printf(
      "Reading: the load-bearing mechanism differs per landscape.  costas\n"
      "is an iterated-descent regime: without partial resets nothing ever\n"
      "solves, while tabu/plateau knobs barely alter the trajectory (its\n"
      "tuned parameters already disable plateau and worsening moves, so\n"
      "those rows coincide with the default by construction).  magic-square\n"
      "is a plateau regime: removing tabu or plateau walking collapses the\n"
      "solve rate, aggressive resets destroy progress, and at this scaled\n"
      "size the search is young enough that disabling resets even helps —\n"
      "at paper scale (200x200) the reset mechanism becomes essential.\n");

  util::CsvWriter csv(options->csv_prefix + "variants.csv");
  csv.write_all({"benchmark", "variant", "solved", "median_iters"}, csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return 0;
}
