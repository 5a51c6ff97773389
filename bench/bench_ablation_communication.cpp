// Ablation 1 — inter-walker communication under the WalkerPool runtime.
//
// The paper's future-work section asks whether limited communication
// (recording "interesting crossroads" and restarting from them) can beat
// the zero-communication scheme, and warns that "the global cost of a
// configuration is not a reliable information since given by heuristic
// error functions".  Its follow-ups sweep exactly this space: the X10 study
// varies inter-place elite exchange and the Cell BE study is constrained to
// bounded-degree on-chip topologies.
//
// This harness sweeps the full pluggable matrix on identical walker
// populations: Neighborhood (complete / ring / torus / hypercube) x
// ExchangeStrategy (elite / migration / decay-elite) x CommMode (on_reset /
// async gossip) x publish period x adoption probability, against the
// independent baseline (isolated x none).  Two metrics per cell:
//   * first-finisher: total search effort (iterations summed over walkers)
//     and time to solution, plus the exchange-traffic counters (publishes,
//     improving accepts, adoptions);
//   * anytime: best-cost-after-budget curves (sim::anytime_curve over the
//     walkers' cost series), because communication mostly reshapes the
//     anytime profile, which first-finisher medians cannot see — the
//     gossip-vs-on-reset comparison lives in this CSV.
//
// Outputs: <prefix>schemes.csv (one row per cell) and <prefix>anytime.csv
// (one row per cell x budget).  --quick runs a tiny instance with 2 reps
// and a reduced knob sweep for the CI smoke; --paper-scale uses the paper's
// instance sizes.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "parallel/policy_names.hpp"
#include "parallel/walker_pool.hpp"
#include "sim/anytime.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace {

using namespace cspls;

/// One point of the sweep: a full communication policy.
struct Cell {
  parallel::CommunicationPolicy policy;

  [[nodiscard]] bool baseline() const { return !policy.exchanging(); }
};

struct CellResult {
  double median_effort = 0.0;   // total iterations across walkers
  double median_time = 0.0;     // time to solution, seconds
  double mean_publishes = 0.0;  // publish events per race (any kind)
  double mean_accepted = 0.0;   // improving keep-best accepts per race
  double mean_adoptions = 0.0;  // configurations actually adopted per race
  int solved = 0;
  /// Per-rep cost series of every walker (anytime aggregation input).
  std::vector<std::vector<std::vector<sim::CostSample>>> rep_series;
};

CellResult run_cell(const csp::Problem& prototype, std::size_t walkers,
                    std::uint64_t seed, int reps, const Cell& cell,
                    std::uint64_t sample_period) {
  CellResult out;
  std::vector<double> efforts, times;
  double publishes = 0.0, accepted = 0.0, adoptions = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    parallel::WalkerPoolOptions pool;
    pool.num_walkers = walkers;
    pool.master_seed = seed + static_cast<std::uint64_t>(rep) * 4099;
    pool.scheduling = parallel::Scheduling::kThreads;
    pool.termination = parallel::Termination::kFirstFinisher;
    pool.communication = cell.policy;
    // Each walker appends only to its own series, so the sink needs no lock
    // while the walkers race.  Sampling is RNG-neutral: trajectories are
    // unchanged.
    std::vector<std::vector<sim::CostSample>> series(walkers);
    pool.sample_sink = [&series](std::size_t id, std::uint64_t iteration,
                                 csp::Cost cost) {
      series[id].push_back({iteration, cost});
    };
    pool.sample_sink_period = sample_period;
    const auto report = parallel::WalkerPool(pool).run(prototype);
    publishes += static_cast<double>(report.comm_publishes);
    accepted += static_cast<double>(report.elite_accepted);
    adoptions += static_cast<double>(report.comm_adoptions);
    // A walk's series ends at its final best cost.
    for (const auto& w : report.walkers) {
      if (!series[w.walker_id].empty() && !w.failed()) {
        series[w.walker_id].push_back(
            {w.result.stats.iterations, w.result.cost});
      }
    }
    out.rep_series.push_back(std::move(series));
    if (report.solved) {
      ++out.solved;
      efforts.push_back(static_cast<double>(report.total_iterations()));
      times.push_back(report.time_to_solution_seconds);
    }
  }
  out.median_effort = util::quantile(efforts, 0.5);
  out.median_time = util::quantile(times, 0.5);
  out.mean_publishes = publishes / reps;
  out.mean_accepted = accepted / reps;
  out.mean_adoptions = adoptions / reps;
  return out;
}

/// Median across reps of the pool's best-cost-at-budget, one row per budget.
void append_anytime_rows(const std::string& benchmark, const Cell& cell,
                         const CellResult& result,
                         std::span<const std::uint64_t> budgets,
                         std::vector<std::vector<std::string>>& rows) {
  std::vector<std::vector<sim::AnytimePoint>> curves;
  curves.reserve(result.rep_series.size());
  for (const auto& series : result.rep_series) {
    curves.push_back(sim::anytime_curve(series, budgets));
  }
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    std::vector<double> costs;
    for (const auto& curve : curves) {
      if (curve[b].best_cost != csp::kInfiniteCost) {
        costs.push_back(static_cast<double>(curve[b].best_cost));
      }
    }
    if (costs.empty()) continue;
    rows.push_back({benchmark,
                    std::string(parallel::name_of(cell.policy.neighborhood)),
                    std::string(parallel::name_of(cell.policy.exchange)),
                    std::string(parallel::name_of(cell.policy.mode)),
                    std::to_string(cell.policy.period),
                    util::Table::num(cell.policy.adopt_probability, 2),
                    std::to_string(budgets[b]),
                    util::Table::num(util::quantile(costs, 0.5), 1)});
  }
}

std::vector<std::string> scheme_row(const std::string& benchmark,
                                    const Cell& cell, const CellResult& r,
                                    int reps) {
  return {benchmark,
          std::string(parallel::name_of(cell.policy.neighborhood)),
          std::string(parallel::name_of(cell.policy.exchange)),
          std::string(parallel::name_of(cell.policy.mode)),
          std::to_string(cell.policy.period),
          util::Table::num(cell.policy.adopt_probability, 2),
          std::to_string(cell.policy.decay),
          std::to_string(r.solved),
          std::to_string(reps),
          util::Table::num(r.median_effort, 0),
          util::Table::sig(r.median_time, 3),
          util::Table::num(r.mean_publishes, 1),
          util::Table::num(r.mean_accepted, 1),
          util::Table::num(r.mean_adoptions, 1)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_ablation_communication",
      "Ablation: WalkerPool communication — Neighborhood (complete/ring/"
      "torus/hypercube) x ExchangeStrategy (elite/migration/decay-elite) x "
      "CommMode (on_reset/async gossip) vs the independent baseline",
      0);
  if (!options) return 0;

  bench::print_preamble(
      "Ablation 1 — inter-walker communication (paper future work)",
      "Neighborhood x exchange x mode sweep vs the independent scheme; "
      "effort = total iterations across walkers, plus anytime "
      "best-cost-after-budget curves from the walkers' cost series "
      "(async gossip vs restart-time adoption).");

  const bool quick = options->quick;
  const int reps = quick ? 2 : 9;
  constexpr std::size_t kWalkers = 4;
  constexpr std::uint64_t kSamplePeriod = 100;
  const std::uint64_t kDecay = 2 * kWalkers;  // forget after ~2 pool rounds

  const std::vector<const char*> instances =
      quick ? std::vector<const char*>{"costas:10"}
            : std::vector<const char*>{"costas", "magic-square"};
  const std::vector<std::uint64_t> periods =
      quick ? std::vector<std::uint64_t>{100}
            : std::vector<std::uint64_t>{100, 1000};
  const std::vector<double> adopts =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.75};

  std::vector<std::vector<std::string>> scheme_rows;
  std::vector<std::vector<std::string>> anytime_rows;
  for (const char* name : instances) {
    const auto spec = bench::spec_for(name, options->paper_scale);
    const auto prototype = problems::instantiate(spec);
    const std::string label = bench::label(spec);

    util::Table table({"neighborhood", "exchange", "mode", "period",
                       "p(adopt)", "decay", "solved", "med effort (iters)",
                       "med T (s)", "publishes", "accepted", "adoptions",
                       "vs independent"});

    // Baseline: the paper's independent scheme.  Its series also fix the
    // per-benchmark budget grid, so every cell's anytime curve is sampled
    // at comparable budgets.
    Cell baseline;
    baseline.policy.period = 0;
    baseline.policy.adopt_probability = 0.0;
    const CellResult indep = run_cell(*prototype, kWalkers, options->seed,
                                      reps, baseline, kSamplePeriod);
    std::vector<std::vector<sim::CostSample>> grid_series;
    for (const auto& series : indep.rep_series) {
      grid_series.insert(grid_series.end(), series.begin(), series.end());
    }
    const std::vector<std::uint64_t> budgets =
        sim::anytime_budget_grid(grid_series, 8);

    table.add_row({"isolated", "none", "-", "-", "-", "-",
                   std::to_string(indep.solved) + "/" + std::to_string(reps),
                   util::Table::num(indep.median_effort, 0),
                   util::Table::sig(indep.median_time, 3), "0", "0", "0",
                   "1.00x"});
    scheme_rows.push_back(scheme_row(label, baseline, indep, reps));
    append_anytime_rows(label, baseline, indep, budgets, anytime_rows);

    for (const auto neighborhood :
         {parallel::Neighborhood::kComplete, parallel::Neighborhood::kRing,
          parallel::Neighborhood::kTorus,
          parallel::Neighborhood::kHypercube}) {
      for (const auto exchange :
           {parallel::Exchange::kElite, parallel::Exchange::kMigration,
            parallel::Exchange::kDecayElite}) {
        for (const auto mode :
             {parallel::CommMode::kOnReset, parallel::CommMode::kAsync}) {
          for (const std::uint64_t period : periods) {
            for (const double adopt : adopts) {
              Cell cell;
              cell.policy.neighborhood = neighborhood;
              cell.policy.exchange = exchange;
              cell.policy.mode = mode;
              cell.policy.period = period;
              cell.policy.adopt_probability = adopt;
              cell.policy.decay =
                  exchange == parallel::Exchange::kDecayElite ? kDecay : 0;
              const CellResult dep = run_cell(*prototype, kWalkers,
                                              options->seed, reps, cell,
                                              kSamplePeriod);
              const double ratio =
                  indep.median_effort > 0.0
                      ? dep.median_effort / indep.median_effort
                      : 0.0;
              table.add_row(
                  {std::string(parallel::name_of(neighborhood)),
                   std::string(parallel::name_of(exchange)),
                   std::string(parallel::name_of(mode)),
                   std::to_string(period), util::Table::num(adopt, 2),
                   std::to_string(cell.policy.decay),
                   std::to_string(dep.solved) + "/" + std::to_string(reps),
                   util::Table::num(dep.median_effort, 0),
                   util::Table::sig(dep.median_time, 3),
                   util::Table::num(dep.mean_publishes, 1),
                   util::Table::num(dep.mean_accepted, 1),
                   util::Table::num(dep.mean_adoptions, 1),
                   util::Table::num(ratio, 2) + "x"});
              scheme_rows.push_back(scheme_row(label, cell, dep, reps));
              append_anytime_rows(label, cell, dep, budgets, anytime_rows);
            }
          }
        }
      }
    }
    std::printf("%s\n", table.render(label).c_str());
  }

  std::printf(
      "Reading: aggressive elite adoption (short periods, the complete\n"
      "blackboard) inflates total effort — walkers herd into one basin — a\n"
      "quantitative echo of the paper's caution that \"the global cost of a\n"
      "configuration is not a reliable information since given by heuristic\n"
      "error functions\".  Bounded-degree graphs (ring, torus, hypercube)\n"
      "bound the damage: diversity collapses one hop at a time instead of\n"
      "globally, with torus/hypercube trading hops for degree.  Migration\n"
      "diversifies instead of herding, and the decay pool forgets stale\n"
      "crossroads, which shows up in the anytime CSV more than in\n"
      "first-finisher medians.  Async gossip (mode = async) adopts while\n"
      "walking instead of waiting for the reset policy: adoptions rise for\n"
      "the same publish traffic, which sharpens the early anytime profile\n"
      "but herds even faster when the neighbourhood is dense.  At harness\n"
      "scale the ratios are noisy; none of the communicating variants beats\n"
      "independence *consistently*, matching the paper's conclusion that\n"
      "doing so is a genuine challenge.\n");

  util::CsvWriter csv(options->csv_prefix + "schemes.csv");
  csv.write_all({"benchmark", "neighborhood", "exchange", "mode", "period",
                 "adopt", "decay", "solved", "reps", "median_effort",
                 "median_time_s", "publishes_mean", "accepted_mean",
                 "adoptions_mean"},
                scheme_rows);
  util::CsvWriter anytime_csv(options->csv_prefix + "anytime.csv");
  anytime_csv.write_all({"benchmark", "neighborhood", "exchange", "mode",
                         "period", "adopt", "budget_iterations",
                         "median_best_cost"},
                        anytime_rows);
  std::printf("\nCSV written to %s and %s\n", csv.path().c_str(),
              anytime_csv.path().c_str());
  return 0;
}
