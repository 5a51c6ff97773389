// Hot-path measurement harness: drives the Adaptive Search engine over every
// kernel through two hot paths in the same binary —
//
//   reference: csp::ScalarPathProblem, the model's per-variable virtuals
//              (cost_on_variable / cost_if_swap) looped one call at a time,
//              the engine's pre-batched shape;
//   kernel   : the kernel's bulk overrides (cost_on_all_variables /
//              best_swap_for), the path every solve takes.
//
// Reports iterations/sec per path and the kernel/reference speedup.  Emits
// machine-readable BENCH_micro.json (schema cspls-bench-micro/3) so CI and
// future changes can track the perf trajectory; exits non-zero if the two
// paths ever disagree on a fixed-seed trajectory (they must be identical —
// the bulk hooks are pure constant-factor optimizations).
//
// Usage: bench_micro_solver [--quick] [--out FILE] [--seed N]
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_search.hpp"
#include "csp/scalar_path.hpp"
#include "problems/registry.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace cspls;

struct Workload {
  std::string problem;
  std::size_t size = 0;
  std::uint64_t iteration_budget = 0;  ///< full-mode budget; --quick /10
};

/// Paper-order workloads at (or near) paper sizes where a single walk stays
/// affordable; budgets target roughly 0.2-1 s per path in full mode.
/// perfect-square runs twice: the quadtree class on a 32-column skyline and
/// Duijvestijn-21 (size 0), whose 112-column skyline makes placement the
/// dominant cost.
std::vector<Workload> workloads() {
  return {
      {"costas", 18, 20'000},         {"all-interval", 100, 40'000},
      {"all-interval", 200, 15'000},  {"perfect-square", 8, 15'000},
      {"perfect-square", 0, 8'000},   {"magic-square", 20, 20'000},
      {"queens", 100, 20'000},        {"langford", 32, 40'000},
      {"partition", 80, 40'000},      {"alpha", 26, 400'000},
  };
}

struct PathResult {
  double seconds = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t cost_evaluations = 0;
  csp::Cost final_cost = 0;
  std::vector<int> solution;

  [[nodiscard]] double iters_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(iterations) / seconds : 0.0;
  }
  [[nodiscard]] double evals_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(cost_evaluations) / seconds
                         : 0.0;
  }
};

/// One bounded, never-terminating walk (target_cost = -1): every path runs
/// the exact same number of engine iterations, so the wall-clock ratio is a
/// pure per-iteration cost ratio.
PathResult run_path(csp::Problem& problem, std::uint64_t budget,
                    std::uint64_t seed) {
  auto params = core::Params::from_hints(problem.tuning(),
                                         problem.num_variables());
  params.restart_limit = budget;
  params.max_restarts = 0;
  params.target_cost = -1;  // unreachable: always run the full budget
  const core::AdaptiveSearch engine(params);
  util::Xoshiro256 rng(seed);
  const auto result = engine.solve(problem, rng);
  PathResult out;
  out.seconds = result.stats.seconds;
  out.iterations = result.stats.iterations;
  out.cost_evaluations = result.stats.cost_evaluations;
  out.final_cost = result.cost;
  out.solution = result.solution;
  return out;
}

bool paths_match(const PathResult& a, const PathResult& b) {
  return a.iterations == b.iterations &&
         a.cost_evaluations == b.cost_evaluations &&
         a.final_cost == b.final_cost && a.solution == b.solution;
}

void append_json_path(std::string& json, const char* key,
                      const PathResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"seconds\": %.6f, \"iters_per_sec\": %.1f, "
                "\"evals_per_sec\": %.1f}",
                key, r.seconds, r.iters_per_sec(), r.evals_per_sec());
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_micro_solver",
                       "Hot-path throughput: scalar reference path vs kernel "
                       "hooks per model, emitting BENCH_micro.json");
  args.add_flag("quick", "CI smoke mode: 1/10 iteration budgets");
  args.add_string("out", "BENCH_micro.json", "JSON output path");
  args.add_uint64("seed", 0xB5EED, "master RNG seed");
  if (!args.parse(argc, argv)) {
    return args.help_requested() ? 0 : 2;
  }
  const bool quick = args.flag("quick");
  const auto seed = args.get_uint64("seed");

  std::printf("# bench_micro_solver — reference vs kernel hot path%s\n",
              quick ? " (--quick)" : "");
  std::printf("# SIMD tier: %s\n", util::simd::tier_name());

  util::Table table({"instance", "vars", "iters", "reference it/s",
                     "kernel it/s", "kernel/reference"});

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"cspls-bench-micro/3\",\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += std::string("  \"simd_tier\": \"") + util::simd::tier_name() +
          "\",\n";
  json += "  \"results\": [\n";

  bool paths_agree = true;
  bool first = true;
  for (const auto& w : workloads()) {
    const std::uint64_t budget =
        quick ? std::max<std::uint64_t>(200, w.iteration_budget / 10)
              : w.iteration_budget;

    auto kernel_problem = problems::make_problem(w.problem, w.size, 7);
    const std::string instance = kernel_problem->instance_description();
    const std::size_t vars = kernel_problem->num_variables();
    // Reference path: same kernel behind the de-optimizing adapter.
    csp::ScalarPathProblem reference_problem(
        problems::make_problem(w.problem, w.size, 7));

    // Warm-up on throwaway clones (touch caches, fault pages) — the measured
    // problems must keep their pristine canonical state so both paths start
    // from the identical configuration.
    {
      const auto warm_budget = std::max<std::uint64_t>(budget / 10, 50);
      auto warm = kernel_problem->clone();
      (void)run_path(*warm, warm_budget, seed ^ 0xFFFF);
      auto warm_reference = reference_problem.clone();
      (void)run_path(*warm_reference, warm_budget, seed ^ 0xFFFF);
    }
    const PathResult kernel = run_path(*kernel_problem, budget, seed);
    const PathResult reference = run_path(reference_problem, budget, seed);

    // Both paths must walk the identical trajectory: same iteration count,
    // same evaluation count, same final configuration.
    const bool agree = paths_match(kernel, reference);
    if (!agree) {
      std::fprintf(stderr, "ERROR: reference/kernel paths diverged on %s\n",
                   instance.c_str());
      paths_agree = false;
    }

    const double speedup = reference.seconds > 0.0 && kernel.seconds > 0.0
                               ? reference.seconds / kernel.seconds
                               : 0.0;

    char cell[64];
    std::vector<std::string> row;
    row.push_back(instance);
    row.push_back(std::to_string(vars));
    row.push_back(std::to_string(kernel.iterations));
    std::snprintf(cell, sizeof(cell), "%.0f", reference.iters_per_sec());
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.0f", kernel.iters_per_sec());
    row.push_back(cell);
    std::snprintf(cell, sizeof(cell), "%.2fx", speedup);
    row.push_back(cell);
    table.add_row(row);

    if (!first) json += ",\n";
    first = false;
    json += "    {\n";
    json += "      \"problem\": \"" + w.problem + "\",\n";
    json += "      \"instance\": \"" + instance + "\",\n";
    json += "      \"variables\": " + std::to_string(vars) + ",\n";
    json += "      \"iterations\": " + std::to_string(kernel.iterations) +
            ",\n";
    json += "      \"cost_evaluations\": " +
            std::to_string(kernel.cost_evaluations) + ",\n";
    append_json_path(json, "reference", reference);
    json += ",\n";
    append_json_path(json, "kernel", kernel);
    json += ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "      \"speedup\": %.3f,\n", speedup);
    json += buf;
    json += std::string("      \"paths_agree\": ") +
            (agree ? "true" : "false") + "\n";
    json += "    }";
  }
  json += "\n  ]\n}\n";

  std::fputs(table.render("hot-path throughput").c_str(), stdout);

  const std::string& out_path = args.get_string("out");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ERROR: cannot write %s\n", out_path.c_str());
    return 3;
  }
  out << json;
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!paths_agree) {
    std::fprintf(stderr,
                 "FAIL: at least one kernel's hot path diverged from the "
                 "scalar reference\n");
    return 1;
  }
  return 0;
}
