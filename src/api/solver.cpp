#include "api/solver.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "core/stop_token.hpp"
#include "problems/spec.hpp"

namespace cspls::api {

namespace {

WalkerReport walker_report_of(const parallel::WalkerOutcome& outcome) {
  WalkerReport report;
  report.id = outcome.walker_id;
  report.solved = outcome.result.solved;
  report.interrupted = outcome.result.interrupted;
  report.cost = outcome.result.cost;
  report.iterations = outcome.result.stats.iterations;
  report.swaps = outcome.result.stats.swaps;
  report.plateau_moves = outcome.result.stats.plateau_moves;
  report.local_minima = outcome.result.stats.local_minima;
  report.resets = outcome.result.stats.resets;
  report.restarts = outcome.result.stats.restarts;
  report.cost_evaluations = outcome.result.stats.cost_evaluations;
  report.seconds = outcome.result.stats.seconds;
  report.failed = outcome.failed();
  report.error = outcome.result.error;
  return report;
}

SolveReport report_of(const problems::ProblemSpec& spec,
                      const parallel::MultiWalkReport& pool_report) {
  SolveReport report;
  report.problem = problems::format_spec(spec);
  report.solved = pool_report.solved;
  // Exactly one termination cause per run, taken from what the walkers'
  // polls actually observed — not from re-reading the flag or the clock
  // here, which would misreport a run that completed normally just before
  // a late cancel / deadline crossing.
  report.cancelled = pool_report.interrupt_cause == core::StopCause::kCancel;
  report.deadline_expired =
      pool_report.interrupt_cause == core::StopCause::kDeadline;
  report.preempted =
      pool_report.interrupt_cause == core::StopCause::kPreempted;
  report.winner = pool_report.winner;
  report.cost = pool_report.best.cost;
  report.wall_seconds = pool_report.wall_seconds;
  report.time_to_solution_seconds = pool_report.time_to_solution_seconds;
  report.total_iterations = pool_report.total_iterations();
  report.comm_publishes = pool_report.comm_publishes;
  report.elite_accepted = pool_report.elite_accepted;
  report.comm_adoptions = pool_report.comm_adoptions;
  report.failed_walkers = pool_report.failed_walkers;
  report.solution = pool_report.best.solution;
  report.walkers.reserve(pool_report.walkers.size());
  for (const parallel::WalkerOutcome& outcome : pool_report.walkers) {
    report.walkers.push_back(walker_report_of(outcome));
  }
  return report;
}

}  // namespace

SolveReport Solver::solve(const SolveRequest& request, core::StopToken token,
                          const SolveCallbacks& callbacks) {
  request.retry.validate();
  const problems::ProblemSpec spec = problems::parse_spec(request.problem);
  const std::unique_ptr<csp::Problem> problem = problems::instantiate(spec);

  if (request.deadline_ms != 0) {
    token = token.expiring_at(
        core::StopToken::Clock::now() +
        std::chrono::milliseconds(request.deadline_ms));
  }

  parallel::WalkerPoolOptions options = request.to_pool_options();
  options.heartbeat = callbacks.heartbeat;
  if (callbacks.sample_sink && callbacks.sample_period != 0) {
    options.sample_sink = callbacks.sample_sink;
    options.sample_sink_period = callbacks.sample_period;
  }
  options.preempt = callbacks.preempt;
  options.checkpoint_out = callbacks.checkpoint_out;
  const parallel::WalkerPool pool(std::move(options));
  const parallel::MultiWalkReport pool_report = pool.run(*problem, token);
  return report_of(spec, pool_report);
}

}  // namespace cspls::api
