#include "core/checkpoint.hpp"

#include <algorithm>
#include <string>

namespace cspls::core {

util::Json to_json(const RunStats& stats) {
  util::Json json = util::Json::object();
  json.set("iterations", stats.iterations)
      .set("swaps", stats.swaps)
      .set("plateau_moves", stats.plateau_moves)
      .set("local_minima", stats.local_minima)
      .set("resets", stats.resets)
      .set("restarts", stats.restarts)
      .set("cost_evaluations", stats.cost_evaluations)
      .set("seconds", stats.seconds);
  return json;
}

RunStats run_stats_from_json(const util::Json& json,
                             const util::JsonPath& path) {
  const util::JsonReader in(json, path,
                            {"iterations", "swaps", "plateau_moves",
                             "local_minima", "resets", "restarts",
                             "cost_evaluations", "seconds"});
  RunStats stats;
  stats.iterations = in.get<std::uint64_t>("iterations");
  stats.swaps = in.get<std::uint64_t>("swaps");
  stats.plateau_moves = in.get<std::uint64_t>("plateau_moves");
  stats.local_minima = in.get<std::uint64_t>("local_minima");
  stats.resets = in.get<std::uint64_t>("resets");
  stats.restarts = in.get<std::uint64_t>("restarts");
  stats.cost_evaluations = in.get<std::uint64_t>("cost_evaluations");
  stats.seconds = in.get<double>("seconds");
  return stats;
}

util::Json Checkpoint::to_json() const {
  util::Json json = util::Json::object();
  json.set("schema", kSchema)
      .set("values", util::Json::array_of(values))
      .set("cost", cost)
      .set("best", util::Json::array_of(best))
      .set("best_cost", best_cost)
      .set("tabu_until", util::Json::array_of(tabu_until))
      .set("marks_since_reset", static_cast<std::uint64_t>(marks_since_reset))
      .set("rng_state", util::Json::array_of(rng_state))
      .set("stats", core::to_json(stats))
      .set("iter_in_walk", iter_in_walk)
      .set("restarts_done", static_cast<std::uint64_t>(restarts_done));
  return json;
}

Checkpoint Checkpoint::from_json(const util::Json& json) {
  return from_json(json, util::JsonPath{"core::Checkpoint"});
}

Checkpoint Checkpoint::from_json(const util::Json& json,
                                 const util::JsonPath& path) {
  const util::JsonReader in(json, path,
                            {"schema", "values", "cost", "best", "best_cost",
                             "tabu_until", "marks_since_reset", "rng_state",
                             "stats", "iter_in_walk", "restarts_done"});
  if (const std::string schema = in.get<std::string>("schema");
      schema != kSchema) {
    in.fail("schema", "unsupported schema \"" + schema + "\"");
  }
  Checkpoint cp;
  cp.values = in.get<std::vector<int>>("values");
  cp.cost = in.get<csp::Cost>("cost");
  cp.best = in.get<std::vector<int>>("best");
  cp.best_cost = in.get<csp::Cost>("best_cost");
  cp.tabu_until = in.get<std::vector<std::uint64_t>>("tabu_until");
  cp.marks_since_reset = in.get<std::uint32_t>("marks_since_reset");
  const auto rng = in.get<std::vector<std::uint64_t>>("rng_state");
  if (rng.size() != cp.rng_state.size()) {
    in.fail("rng_state", "must hold 4 words");
  }
  // xoshiro256** never reaches the all-zero state, and from_state would
  // silently substitute the default stream: the "resumed" walk would be
  // another walk.
  if (std::all_of(rng.begin(), rng.end(), [](auto w) { return w == 0; })) {
    in.fail("rng_state", "all-zero is not a xoshiro256** state");
  }
  std::copy(rng.begin(), rng.end(), cp.rng_state.begin());
  cp.stats = run_stats_from_json(in.at("stats"), in.path("stats"));
  cp.iter_in_walk = in.get<std::uint64_t>("iter_in_walk");
  cp.restarts_done = in.get<std::uint32_t>("restarts_done");

  // Internal consistency: both configurations exist and the tabu vector
  // covers the same variables — a checkpoint never describes a run that
  // the engine could not actually have been in.
  if (cp.values.empty()) in.fail("values", "empty configuration");
  if (cp.best.size() != cp.values.size()) {
    in.fail("best", "size differs from values");
  }
  if (cp.tabu_until.size() != cp.values.size()) {
    in.fail("tabu_until", "size differs from values");
  }
  return cp;
}

}  // namespace cspls::core
