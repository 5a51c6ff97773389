#include "api/solve.hpp"

#include <stdexcept>

namespace cspls::api {

namespace {

// The `params` and `retry` sub-values, which only a SolveRequest carries.

util::Json params_to_json(const core::Params& params) {
  util::Json json = util::Json::object();
  json.set("target_cost", static_cast<std::int64_t>(params.target_cost))
      .set("restart_limit", params.restart_limit)
      .set("restart_schedule", std::string(name_of(params.restart_schedule)))
      .set("max_restarts", static_cast<std::uint64_t>(params.max_restarts))
      .set("freeze_loc_min", static_cast<std::uint64_t>(params.freeze_loc_min))
      .set("freeze_swap", static_cast<std::uint64_t>(params.freeze_swap))
      .set("reset_limit", static_cast<std::uint64_t>(params.reset_limit))
      .set("reset_fraction", params.reset_fraction)
      .set("prob_accept_plateau", params.prob_accept_plateau)
      .set("prob_accept_local_min", params.prob_accept_local_min);
  return json;
}

core::Params params_from_json(const util::Json& json,
                             const util::JsonPath& path) {
  const util::JsonReader in(
      json, path,
      {"target_cost", "restart_limit", "restart_schedule", "max_restarts",
       "freeze_loc_min", "freeze_swap", "reset_limit", "reset_fraction",
       "prob_accept_plateau", "prob_accept_local_min"});
  core::Params params;
  params.target_cost = in.get("target_cost", params.target_cost);
  params.restart_limit = in.get("restart_limit", params.restart_limit);
  params.restart_schedule = in.get("restart_schedule",
                              parallel::kRestartScheduleNames,
                              params.restart_schedule);
  params.max_restarts = in.get("max_restarts", params.max_restarts);
  params.freeze_loc_min = in.get("freeze_loc_min", params.freeze_loc_min);
  params.freeze_swap = in.get("freeze_swap", params.freeze_swap);
  params.reset_limit = in.get("reset_limit", params.reset_limit);
  params.reset_fraction = in.get("reset_fraction", params.reset_fraction);
  params.prob_accept_plateau =
      in.get("prob_accept_plateau", params.prob_accept_plateau);
  params.prob_accept_local_min =
      in.get("prob_accept_local_min", params.prob_accept_local_min);
  return params;
}

util::Json retry_to_json(const RetryPolicy& retry) {
  util::Json json = util::Json::object();
  json.set("max_attempts", static_cast<std::uint64_t>(retry.max_attempts))
      .set("base_backoff_ms", retry.base_backoff_ms)
      .set("multiplier", retry.multiplier)
      .set("jitter", retry.jitter);
  return json;
}

RetryPolicy retry_from_json(const util::Json& json,
                            const util::JsonPath& path) {
  const util::JsonReader in(
      json, path, {"max_attempts", "base_backoff_ms", "multiplier", "jitter"});
  RetryPolicy retry;
  retry.max_attempts = in.get("max_attempts", retry.max_attempts);
  retry.base_backoff_ms = in.get("base_backoff_ms", retry.base_backoff_ms);
  retry.multiplier = in.get("multiplier", retry.multiplier);
  retry.jitter = in.get("jitter", retry.jitter);
  // Rejected where it is decoded, not attempts later.
  retry.validate();
  return retry;
}

}  // namespace

// ---------------------------------------------------------------------------
// SolveRequest
// ---------------------------------------------------------------------------

void RetryPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument(
        "SolveRequest: retry.max_attempts must be at least 1 (the first "
        "attempt counts)");
  }
  if (!(multiplier >= 1.0)) {
    throw std::invalid_argument(
        "SolveRequest: retry.multiplier must be >= 1 (backoff never "
        "shrinks)");
  }
  if (!(jitter >= 0.0 && jitter <= 1.0)) {
    throw std::invalid_argument(
        "SolveRequest: retry.jitter must be in [0, 1]");
  }
}

parallel::WalkerPoolOptions SolveRequest::to_pool_options() const {
  parallel::WalkerPoolOptions options;
  options.num_walkers = walkers;
  options.master_seed = seed;
  options.params = params;
  options.max_threads = max_threads;
  options.scheduling = scheduling;
  options.communication.neighborhood = neighborhood;
  options.communication.exchange = exchange;
  options.communication.mode = comm_mode;
  options.communication.period = comm_period;
  options.communication.adopt_probability = comm_adopt_probability;
  options.communication.decay = comm_decay;
  options.termination = termination;
  options.faults = faults;
  options.warm_start = warm_start;
  options.resume = resume_from;
  return options;
}

util::Json SolveRequest::to_json() const {
  util::Json json = util::Json::object();
  json.set("problem", problem)
      .set("walkers", static_cast<std::uint64_t>(walkers))
      .set("seed", seed)
      .set("scheduling", std::string(name_of(scheduling)))
      .set("neighborhood", std::string(name_of(neighborhood)))
      .set("exchange", std::string(name_of(exchange)))
      .set("comm_mode", std::string(name_of(comm_mode)))
      .set("termination", std::string(name_of(termination)))
      .set("comm_period", comm_period)
      .set("comm_adopt_probability", comm_adopt_probability)
      .set("comm_decay", comm_decay)
      .set("max_threads", static_cast<std::uint64_t>(max_threads))
      .set("deadline_ms", deadline_ms);
  if (params.has_value()) json.set("params", params_to_json(*params));
  json.set("retry", retry_to_json(retry))
      .set("watchdog_stall_ms", watchdog_stall_ms);
  if (warm_start.has_value()) {
    json.set("warm_start", util::Json::array_of(*warm_start));
  }
  if (!faults.empty()) {
    util::Json plans = util::Json::array();
    for (const util::fault::FaultPlan& plan : faults) {
      plans.push_back(plan.to_json());
    }
    json.set("faults", std::move(plans));
  }
  if (resume_from.has_value()) {
    json.set("resume_from", resume_from->to_json());
  }
  return json;
}

std::string SolveRequest::to_json_string(int indent) const {
  return to_json().dump(indent);
}

SolveRequest SolveRequest::from_json(const util::Json& json) {
  const util::JsonReader in(
      json, util::JsonPath{"SolveRequest"},
      {"problem", "walkers", "seed", "scheduling", "neighborhood", "exchange",
       "comm_mode", "termination", "comm_period", "comm_adopt_probability",
       "comm_decay", "max_threads", "deadline_ms", "params", "retry",
       "watchdog_stall_ms", "warm_start", "faults", "resume_from"});
  SolveRequest request;
  request.problem = in.get<std::string>("problem");
  if (request.problem.empty()) {
    in.fail("problem", "empty instance spec (e.g. \"costas:18\")");
  }
  request.walkers = in.get("walkers", request.walkers);
  request.seed = in.get("seed", request.seed);
  request.scheduling =
      in.get("scheduling", parallel::kSchedulingNames, request.scheduling);
  request.neighborhood = in.get("neighborhood", parallel::kNeighborhoodNames,
                                request.neighborhood);
  request.exchange =
      in.get("exchange", parallel::kExchangeNames, request.exchange);
  request.comm_mode =
      in.get("comm_mode", parallel::kCommModeNames, request.comm_mode);
  request.termination =
      in.get("termination", parallel::kTerminationNames, request.termination);
  request.comm_period = in.get("comm_period", request.comm_period);
  request.comm_adopt_probability =
      in.get("comm_adopt_probability", request.comm_adopt_probability);
  request.comm_decay = in.get("comm_decay", request.comm_decay);
  request.max_threads = in.get("max_threads", request.max_threads);
  request.deadline_ms = in.get("deadline_ms", request.deadline_ms);
  if (in.find("params") != nullptr) {
    request.params = params_from_json(in.at("params"), in.path("params"));
  }
  if (in.find("retry") != nullptr) {
    request.retry = retry_from_json(in.at("retry"), in.path("retry"));
  }
  request.watchdog_stall_ms =
      in.get("watchdog_stall_ms", request.watchdog_stall_ms);
  if (in.find("warm_start") != nullptr) {
    request.warm_start = in.get<std::vector<int>>("warm_start");
  }
  if (in.find("faults") != nullptr) {
    const std::vector<util::Json>& plans = in.elements("faults");
    for (std::size_t i = 0; i < plans.size(); ++i) {
      request.faults.push_back(util::fault::FaultPlan::from_json(
          plans[i], in.path("faults", i)));
    }
  }
  if (in.find("resume_from") != nullptr) {
    request.resume_from = parallel::PoolCheckpoint::from_json(
        in.at("resume_from"), in.path("resume_from"));
    if (request.warm_start.has_value()) {
      in.fail("resume_from",
              "mutually exclusive with warm_start (a checkpoint already "
              "fixes every walker's configuration)");
    }
  }
  return request;
}

SolveRequest SolveRequest::from_json_string(std::string_view text) {
  std::string error;
  const std::optional<util::Json> json = util::Json::parse(text, &error);
  if (!json.has_value()) {
    throw std::invalid_argument("SolveRequest: malformed JSON: " + error);
  }
  return from_json(*json);
}

// ---------------------------------------------------------------------------
// SolveReport
// ---------------------------------------------------------------------------

util::Json SolveReport::to_json() const {
  util::Json json = util::Json::object();
  json.set("problem", problem)
      .set("solved", solved)
      .set("cancelled", cancelled)
      .set("deadline_expired", deadline_expired)
      .set("preempted", preempted)
      // kNoWinner crosses the wire as -1 (size_t max would not survive
      // readers that parse winners as signed integers).
      .set("winner", has_winner() ? static_cast<std::int64_t>(winner)
                                  : std::int64_t{-1})
      .set("cost", static_cast<std::int64_t>(cost))
      .set("wall_seconds", wall_seconds)
      .set("time_to_solution_seconds", time_to_solution_seconds)
      .set("total_iterations", total_iterations)
      .set("comm_publishes", comm_publishes)
      .set("elite_accepted", elite_accepted)
      .set("comm_adoptions", comm_adoptions)
      .set("failed_walkers", static_cast<std::uint64_t>(failed_walkers))
      .set("attempts", static_cast<std::uint64_t>(attempts))
      .set("degraded", degraded);
  json.set("solution", util::Json::array_of(solution));
  util::Json walkers_json = util::Json::array();
  for (const WalkerReport& w : walkers) {
    util::Json wj = util::Json::object();
    wj.set("id", static_cast<std::uint64_t>(w.id))
        .set("solved", w.solved)
        .set("interrupted", w.interrupted)
        .set("cost", static_cast<std::int64_t>(w.cost))
        .set("iterations", w.iterations)
        .set("swaps", w.swaps)
        .set("plateau_moves", w.plateau_moves)
        .set("local_minima", w.local_minima)
        .set("resets", w.resets)
        .set("restarts", w.restarts)
        .set("cost_evaluations", w.cost_evaluations)
        .set("seconds", w.seconds)
        .set("failed", w.failed);
    if (!w.error.empty()) wj.set("error", w.error);
    walkers_json.push_back(std::move(wj));
  }
  json.set("walkers", std::move(walkers_json));
  return json;
}

std::string SolveReport::to_json_string(int indent) const {
  return to_json().dump(indent);
}

SolveReport SolveReport::from_json(const util::Json& json) {
  const util::JsonReader in(
      json, util::JsonPath{"SolveReport"},
      {"problem", "solved", "cancelled", "deadline_expired", "preempted",
       "winner", "cost", "wall_seconds", "time_to_solution_seconds",
       "total_iterations", "comm_publishes", "elite_accepted",
       "comm_adoptions", "failed_walkers", "attempts", "degraded", "solution",
       "walkers"});
  SolveReport report;
  report.problem = in.get("problem", report.problem);
  report.solved = in.get("solved", report.solved);
  report.cancelled = in.get("cancelled", report.cancelled);
  report.deadline_expired = in.get("deadline_expired", report.deadline_expired);
  report.preempted = in.get("preempted", report.preempted);
  const std::int64_t winner = in.get<std::int64_t>("winner");
  report.winner = winner < 0 ? parallel::kNoWinner
                        : static_cast<std::size_t>(winner);
  report.cost = in.get<csp::Cost>("cost");
  report.wall_seconds = in.get("wall_seconds", report.wall_seconds);
  report.time_to_solution_seconds =
      in.get("time_to_solution_seconds", report.time_to_solution_seconds);
  report.total_iterations = in.get("total_iterations", report.total_iterations);
  report.comm_publishes = in.get("comm_publishes", report.comm_publishes);
  report.elite_accepted = in.get("elite_accepted", report.elite_accepted);
  report.comm_adoptions = in.get("comm_adoptions", report.comm_adoptions);
  report.failed_walkers = in.get("failed_walkers", report.failed_walkers);
  report.attempts = in.get("attempts", report.attempts);
  report.degraded = in.get("degraded", report.degraded);
  report.solution = in.get("solution", report.solution);
  if (in.find("walkers") != nullptr) {
    const std::vector<util::Json>& walkers = in.elements("walkers");
    for (std::size_t i = 0; i < walkers.size(); ++i) {
      const util::JsonReader wj(
          walkers[i], in.path("walkers", i),
          {"id", "solved", "interrupted", "cost", "iterations", "swaps",
           "plateau_moves", "local_minima", "resets", "restarts",
           "cost_evaluations", "seconds", "failed", "error"});
      WalkerReport w;
      w.id = wj.get("id", w.id);
      w.solved = wj.get("solved", w.solved);
      w.interrupted = wj.get("interrupted", w.interrupted);
      w.cost = wj.get<csp::Cost>("cost");
      w.iterations = wj.get("iterations", w.iterations);
      w.swaps = wj.get("swaps", w.swaps);
      w.plateau_moves = wj.get("plateau_moves", w.plateau_moves);
      w.local_minima = wj.get("local_minima", w.local_minima);
      w.resets = wj.get("resets", w.resets);
      w.restarts = wj.get("restarts", w.restarts);
      w.cost_evaluations = wj.get("cost_evaluations", w.cost_evaluations);
      w.seconds = wj.get("seconds", w.seconds);
      w.failed = wj.get("failed", w.failed);
      w.error = wj.get("error", w.error);
      report.walkers.push_back(std::move(w));
    }
  }
  return report;
}

SolveReport SolveReport::from_json_string(std::string_view text) {
  std::string error;
  const std::optional<util::Json> json = util::Json::parse(text, &error);
  if (!json.has_value()) {
    throw std::invalid_argument("SolveReport: malformed JSON: " + error);
  }
  return from_json(*json);
}

}  // namespace cspls::api
