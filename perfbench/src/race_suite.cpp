// race-suite: the library path of the paper's experiments.  Kernels, the
// engine loop and the threaded race do nearly all the work; no serving
// code runs.
#include <algorithm>
#include <cstdio>

#include "api/solver.hpp"
#include "problems/spec.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<RaceModel>& race_models() {
  // Sizes are problems::bench_size except queens and langford, which
  // finish in well under a millisecond there.  Per-pass counts keep every
  // model between about 5% and 30% of suite time.
  static const std::vector<RaceModel> models = {
      {"costas", "costas:13", 12},
      {"all-interval", "all-interval:20", 1},
      {"perfect-square", "perfect-square:8", 8},
      {"magic-square", "magic-square:12", 3},
      {"queens", "queens:1000", 6},
      {"langford", "langford:48", 15},
      {"partition", "partition:80", 4},
      {"alpha", "alpha:26", 1},
  };
  return models;
}

api::SolveRequest race_request(const RaceModel& model, std::size_t walkers,
                               std::uint64_t seed) {
  static const auto params = [] {
    std::map<std::string, core::Params> out;
    for (const auto& m : race_models()) out[m.spec] = solvable_params(m.spec);
    return out;
  }();
  api::SolveRequest request =
      make_request(model.spec, walkers, parallel::Scheduling::kThreads, seed);
  request.termination = parallel::Termination::kFirstFinisher;
  request.params = params.at(model.spec);
  return request;
}

namespace {

/// One suite pass: the models interleaved round-robin by their counts.
std::vector<std::size_t> suite_pass() {
  std::vector<std::size_t> order;
  const auto& models = race_models();
  for (int round = 0;; ++round) {
    bool any = false;
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (round < models[m].per_pass) {
        order.push_back(m);
        any = true;
      }
    }
    if (!any) return order;
  }
}

}  // namespace

WorkloadRun run_race_suite(const RunConfig& config) {
  WorkloadRun run;
  Outcome& out = run.outcome;
  Rng rng(config.seed);
  const auto& models = race_models();

  // Set-up: build the prototypes (requests and fresh checking instances)
  // and run one warm-up solve per model.
  std::vector<double> setups;
  Checker checker;
  for (int s = 0; s < config.setups; ++s) {
    const double t0 = now_ms();
    Checker fresh;
    for (const auto& model : models) {
      const api::SolveReport warm =
          api::Solver::solve(race_request(model, 4, rng.next()));
      if (const auto why = fresh.verify_solved(model.spec, warm); !why.empty()) {
        out.fail("warm-up " + why);
      }
    }
    setups.push_back((now_ms() - t0) / 1e3);
    checker = std::move(fresh);
  }

  // Each answer is checked as it arrives (so reports need not be kept);
  // checking time is taken out of the timed wall time.
  const std::vector<std::size_t> pass = suite_pass();
  std::vector<std::size_t> model_of;
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  double checking_ms = 0.0;
  const double start = now_ms();
  const double deadline = start + config.seconds * 1e3;
  for (std::size_t i = 0; now_ms() < deadline; ++i) {
    const std::size_t m = pass[i % pass.size()];
    const api::SolveRequest request = race_request(models[m], 4, rng.next());
    const double t0 = now_ms();
    const api::SolveReport report = api::Solver::solve(request);
    const double t1 = now_ms();
    if (Tracer* tracer = config.tracer) {
      const std::uint64_t rid = tracer->next_request();
      const std::uint64_t root =
          tracer->add("race-suite/request.race", rid, 0, t0, t1);
      const std::uint64_t call =
          tracer->add("race-suite/api.Solver::solve", rid, root, t0, t1);
      tracer->add("race-suite/program.solve", rid, call,
                  t1 - report.wall_seconds * 1e3, t1);
    }
    ++out.attempted;
    model_of.push_back(m);
    const auto why = checker.verify_solved(models[m].spec, report);
    if (why.empty()) {
      ++ok;
      latency_ms.push_back(t1 - t0);
    } else {
      out.fail(why);
      latency_ms.push_back(kMiss);
    }
    checking_ms += now_ms() - t1;
  }
  const double elapsed_s = (now_ms() - start - checking_ms) / 1e3;

  const double solves_per_s = static_cast<double>(ok) / elapsed_s;
  const double p50 = percentile(latency_ms, 0.5);
  const double p99 = block_tail(latency_ms, 0.99).value;
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.set("ok_share",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
          "ratio");
  out.set("solves_per_s", solves_per_s, "1/s");
  out.set("tts_p50_ms", p50, "ms");
  out.set("tts_p90_ms", block_tail(latency_ms, 0.90).value, "ms");
  out.set("latency_p50_ms", p50, "ms");
  out.set("latency_p99_ms", p99, "ms");
  // One request class: every lane metric is the class's latency, and a
  // closed loop's offered rate is the rate it completes.
  out.set("high_p50_ms", p50, "ms");
  out.set("high_p99_ms", p99, "ms");
  out.set("normal_p50_ms", p50, "ms");
  out.set("normal_p99_ms", p99, "ms");
  out.set("low_p50_ms", p50, "ms");
  out.set("max_rate_at_slo", solves_per_s, "req/s");
  out.notes.push_back("race-suite: " + std::to_string(latency_ms.size()) +
                      " races in " + std::to_string(elapsed_s) + " s");
  // Each model's share of suite time bounds what a change to its kernel
  // can move on this workload.
  std::vector<double> model_ms(models.size(), 0.0);
  double total_ms = 0.0;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    if (latency_ms[i] == kMiss) continue;
    model_ms[model_of[i]] += latency_ms[i];
    total_ms += latency_ms[i];
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    char line[160];
    std::snprintf(line, sizeof line, "race-suite: %s is %.1f%% of suite time",
                  models[m].spec.c_str(), 100.0 * model_ms[m] / total_ms);
    out.notes.push_back(line);
  }
  run.main_metric = p50;
  return run;
}

}  // namespace perfbench
