#include "api/solve.hpp"

#include <stdexcept>

namespace cspls::api {

// ---------------------------------------------------------------------------
// Decode helpers — every accessor names the member it was decoding so a
// malformed document fails with an actionable message.
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_member(std::string_view member,
                             const std::string& detail) {
  throw std::invalid_argument("bad \"" + std::string(member) +
                              "\": " + detail);
}

/// Unknown members are rejected, not ignored: a misspelled "deadline-ms"
/// silently degrading to "no deadline" is exactly the failure a wire
/// format must not have.
void require_known_members(
    const util::Json& json,
    std::initializer_list<std::string_view> allowed,
    std::string_view context) {
  for (const auto& member : json.members()) {
    bool known = false;
    for (const std::string_view name : allowed) {
      if (member.first == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument(std::string(context) +
                                  ": unknown member \"" + member.first +
                                  "\"");
    }
  }
}

std::uint64_t get_u64(const util::Json& json, std::string_view member,
                      std::uint64_t fallback) {
  const util::Json* found = json.find(member);
  if (found == nullptr) return fallback;
  try {
    return found->as_uint64();
  } catch (const std::exception& e) {
    bad_member(member, e.what());
  }
}

double get_double(const util::Json& json, std::string_view member,
                  double fallback) {
  const util::Json* found = json.find(member);
  if (found == nullptr) return fallback;
  try {
    return found->as_double();
  } catch (const std::exception& e) {
    bad_member(member, e.what());
  }
}

bool get_bool(const util::Json& json, std::string_view member, bool fallback) {
  const util::Json* found = json.find(member);
  if (found == nullptr) return fallback;
  try {
    return found->as_bool();
  } catch (const std::exception& e) {
    bad_member(member, e.what());
  }
}

std::string get_string(const util::Json& json, std::string_view member,
                       const std::string& fallback) {
  const util::Json* found = json.find(member);
  if (found == nullptr) return fallback;
  try {
    return found->as_string();
  } catch (const std::exception& e) {
    bad_member(member, e.what());
  }
}

template <typename Enum>
Enum get_policy(const util::Json& json, std::string_view member,
                std::optional<Enum> (*parse)(std::string_view),
                Enum fallback) {
  const std::string name = get_string(json, member, std::string(name_of(fallback)));
  const std::optional<Enum> value = parse(name);
  if (!value.has_value()) {
    bad_member(member, "unknown policy name \"" + name + "\" (" +
                           policy_names_hint() + ")");
  }
  return *value;
}

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

core::Params params_from_json(const util::Json& json) {
  if (!json.is_object()) bad_member("params", "expected an object");
  require_known_members(
      json,
      {"target_cost", "restart_limit", "restart_schedule", "max_restarts",
       "freeze_loc_min", "freeze_swap", "reset_limit", "reset_fraction",
       "prob_accept_plateau", "prob_accept_local_min"},
      "SolveRequest.params");
  core::Params params;
  const util::Json* target = json.find("target_cost");
  if (target != nullptr) {
    try {
      params.target_cost = target->as_int64();
    } catch (const std::exception& e) {
      bad_member("params.target_cost", e.what());
    }
  }
  params.restart_limit =
      get_u64(json, "restart_limit", params.restart_limit);
  params.restart_schedule =
      get_policy(json, "restart_schedule", restart_schedule_from_name,
                 params.restart_schedule);
  params.max_restarts = static_cast<std::uint32_t>(
      get_u64(json, "max_restarts", params.max_restarts));
  params.freeze_loc_min = static_cast<std::uint32_t>(
      get_u64(json, "freeze_loc_min", params.freeze_loc_min));
  params.freeze_swap = static_cast<std::uint32_t>(
      get_u64(json, "freeze_swap", params.freeze_swap));
  params.reset_limit = static_cast<std::uint32_t>(
      get_u64(json, "reset_limit", params.reset_limit));
  params.reset_fraction =
      get_double(json, "reset_fraction", params.reset_fraction);
  params.prob_accept_plateau =
      get_double(json, "prob_accept_plateau", params.prob_accept_plateau);
  params.prob_accept_local_min =
      get_double(json, "prob_accept_local_min", params.prob_accept_local_min);
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

RetryPolicy retry_from_json(const util::Json& json) {
  if (!json.is_object()) bad_member("retry", "expected an object");
  require_known_members(
      json, {"max_attempts", "base_backoff_ms", "multiplier", "jitter"},
      "SolveRequest.retry");
  RetryPolicy retry;
  retry.max_attempts = static_cast<std::uint32_t>(
      get_u64(json, "max_attempts", retry.max_attempts));
  retry.base_backoff_ms =
      get_u64(json, "base_backoff_ms", retry.base_backoff_ms);
  retry.multiplier = get_double(json, "multiplier", retry.multiplier);
  retry.jitter = get_double(json, "jitter", retry.jitter);
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
  options.trace.enabled = trace;
  options.trace.sample_period = trace_sample_period;
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
  json.set("trace", trace).set("trace_sample_period", trace_sample_period);
  json.set("retry", retry_to_json(retry))
      .set("watchdog_stall_ms", watchdog_stall_ms);
  if (warm_start.has_value()) {
    util::Json values = util::Json::array();
    for (const int v : *warm_start) values.push_back(v);
    json.set("warm_start", std::move(values));
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
  if (!json.is_object()) {
    throw std::invalid_argument("SolveRequest: expected a JSON object");
  }
  require_known_members(
      json,
      {"problem", "walkers", "seed", "scheduling", "neighborhood", "exchange",
       "comm_mode", "termination", "comm_period",
       "comm_adopt_probability", "comm_decay", "max_threads", "deadline_ms",
       "params", "trace", "trace_sample_period", "retry", "watchdog_stall_ms",
       "warm_start", "faults", "resume_from"},
      "SolveRequest");
  SolveRequest request;
  request.problem = get_string(json, "problem", "");
  if (request.problem.empty()) {
    bad_member("problem", "missing or empty instance spec "
                          "(e.g. \"costas:18\")");
  }
  request.walkers = static_cast<std::size_t>(
      get_u64(json, "walkers", request.walkers));
  request.seed = get_u64(json, "seed", request.seed);
  request.scheduling = get_policy(json, "scheduling", scheduling_from_name,
                                  request.scheduling);
  request.neighborhood = get_policy(json, "neighborhood",
                                    neighborhood_from_name,
                                    request.neighborhood);
  request.exchange =
      get_policy(json, "exchange", exchange_from_name, request.exchange);
  request.comm_mode = get_policy(json, "comm_mode", comm_mode_from_name,
                                 request.comm_mode);
  request.termination = get_policy(json, "termination", termination_from_name,
                                   request.termination);
  request.comm_period = get_u64(json, "comm_period", request.comm_period);
  request.comm_adopt_probability = get_double(
      json, "comm_adopt_probability", request.comm_adopt_probability);
  request.comm_decay = get_u64(json, "comm_decay", request.comm_decay);
  request.max_threads = static_cast<std::size_t>(
      get_u64(json, "max_threads", request.max_threads));
  request.deadline_ms = get_u64(json, "deadline_ms", request.deadline_ms);
  if (const util::Json* params = json.find("params"); params != nullptr) {
    request.params = params_from_json(*params);
  }
  request.trace = get_bool(json, "trace", request.trace);
  request.trace_sample_period =
      get_u64(json, "trace_sample_period", request.trace_sample_period);
  if (const util::Json* retry = json.find("retry"); retry != nullptr) {
    request.retry = retry_from_json(*retry);
  }
  request.watchdog_stall_ms =
      get_u64(json, "watchdog_stall_ms", request.watchdog_stall_ms);
  if (const util::Json* warm = json.find("warm_start"); warm != nullptr) {
    if (!warm->is_array()) bad_member("warm_start", "expected an array");
    std::vector<int> values;
    values.reserve(warm->size());
    for (const util::Json& v : warm->elements()) {
      try {
        values.push_back(static_cast<int>(v.as_int64()));
      } catch (const std::exception& e) {
        bad_member("warm_start", e.what());
      }
    }
    request.warm_start = std::move(values);
  }
  if (const util::Json* faults = json.find("faults"); faults != nullptr) {
    if (!faults->is_array()) bad_member("faults", "expected an array");
    request.faults.reserve(faults->size());
    for (const util::Json& plan : faults->elements()) {
      try {
        request.faults.push_back(util::fault::FaultPlan::from_json(plan));
      } catch (const std::exception& e) {
        bad_member("faults", e.what());
      }
    }
  }
  if (const util::Json* resume = json.find("resume_from");
      resume != nullptr) {
    try {
      request.resume_from = parallel::PoolCheckpoint::from_json(*resume);
    } catch (const std::exception& e) {
      bad_member("resume_from", e.what());
    }
    if (request.warm_start.has_value()) {
      bad_member("resume_from",
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
  util::Json solution_json = util::Json::array();
  for (const int v : solution) solution_json.push_back(v);
  json.set("solution", std::move(solution_json));
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
  if (!json.is_object()) {
    throw std::invalid_argument("SolveReport: expected a JSON object");
  }
  require_known_members(
      json,
      {"problem", "solved", "cancelled", "deadline_expired", "preempted",
       "winner", "cost",
       "wall_seconds", "time_to_solution_seconds", "total_iterations",
       "comm_publishes", "elite_accepted", "comm_adoptions", "failed_walkers",
       "attempts", "degraded", "solution", "walkers"},
      "SolveReport");
  SolveReport report;
  report.problem = get_string(json, "problem", "");
  report.solved = get_bool(json, "solved", false);
  report.cancelled = get_bool(json, "cancelled", false);
  report.deadline_expired = get_bool(json, "deadline_expired", false);
  report.preempted = get_bool(json, "preempted", false);
  try {
    const std::int64_t winner = json.at("winner").as_int64();
    report.winner = winner < 0 ? parallel::kNoWinner
                               : static_cast<std::size_t>(winner);
  } catch (const std::exception& e) {
    bad_member("winner", e.what());
  }
  try {
    report.cost = json.at("cost").as_int64();
  } catch (const std::exception& e) {
    bad_member("cost", e.what());
  }
  report.wall_seconds = get_double(json, "wall_seconds", 0.0);
  report.time_to_solution_seconds =
      get_double(json, "time_to_solution_seconds", 0.0);
  report.total_iterations = get_u64(json, "total_iterations", 0);
  report.comm_publishes = get_u64(json, "comm_publishes", 0);
  report.elite_accepted = get_u64(json, "elite_accepted", 0);
  report.comm_adoptions = get_u64(json, "comm_adoptions", 0);
  report.failed_walkers =
      static_cast<std::size_t>(get_u64(json, "failed_walkers", 0));
  report.attempts = static_cast<std::uint32_t>(get_u64(json, "attempts", 1));
  report.degraded = get_bool(json, "degraded", false);
  if (const util::Json* solution = json.find("solution");
      solution != nullptr) {
    if (!solution->is_array()) bad_member("solution", "expected an array");
    report.solution.reserve(solution->size());
    for (const util::Json& v : solution->elements()) {
      try {
        report.solution.push_back(static_cast<int>(v.as_int64()));
      } catch (const std::exception& e) {
        bad_member("solution", e.what());
      }
    }
  }
  if (const util::Json* walkers = json.find("walkers"); walkers != nullptr) {
    if (!walkers->is_array()) bad_member("walkers", "expected an array");
    report.walkers.reserve(walkers->size());
    for (const util::Json& wj : walkers->elements()) {
      if (!wj.is_object()) bad_member("walkers", "expected objects");
      WalkerReport w;
      w.id = static_cast<std::size_t>(get_u64(wj, "id", 0));
      w.solved = get_bool(wj, "solved", false);
      w.interrupted = get_bool(wj, "interrupted", false);
      try {
        w.cost = wj.at("cost").as_int64();
      } catch (const std::exception& e) {
        bad_member("walkers[].cost", e.what());
      }
      w.iterations = get_u64(wj, "iterations", 0);
      w.swaps = get_u64(wj, "swaps", 0);
      w.plateau_moves = get_u64(wj, "plateau_moves", 0);
      w.local_minima = get_u64(wj, "local_minima", 0);
      w.resets = get_u64(wj, "resets", 0);
      w.restarts = get_u64(wj, "restarts", 0);
      w.cost_evaluations = get_u64(wj, "cost_evaluations", 0);
      w.seconds = get_double(wj, "seconds", 0.0);
      w.failed = get_bool(wj, "failed", false);
      w.error = get_string(wj, "error", "");
      report.walkers.push_back(w);
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
