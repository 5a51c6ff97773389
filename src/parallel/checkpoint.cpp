#include "parallel/checkpoint.hpp"

#include <string>

namespace cspls::parallel {

namespace {

util::Json result_to_json(const core::Result& result) {
  util::Json json = util::Json::object();
  json.set("solved", result.solved)
      .set("cost", result.cost)
      .set("solution", util::Json::array_of(result.solution))
      .set("stats", core::to_json(result.stats))
      .set("interrupted", result.interrupted)
      .set("stop_cause", core::kStopCauseNames.name(result.stop_cause))
      .set("error", result.error);
  return json;
}

core::Result result_from_json(const util::Json& json,
                              const util::JsonPath& path) {
  const util::JsonReader in(json, path,
                            {"solved", "cost", "solution", "stats",
                             "interrupted", "stop_cause", "error"});
  core::Result result;
  result.solved = in.get<bool>("solved");
  result.cost = in.get<csp::Cost>("cost");
  result.solution = in.get<std::vector<int>>("solution");
  result.stats = core::run_stats_from_json(in.at("stats"), in.path("stats"));
  result.interrupted = in.get<bool>("interrupted");
  result.stop_cause = in.get("stop_cause", core::kStopCauseNames);
  result.error = in.get<std::string>("error");
  return result;
}

}  // namespace

util::Json PoolCheckpoint::to_json() const {
  util::Json walkers_json = util::Json::array();
  for (const WalkerEntry& entry : walkers) {
    util::Json entry_json = util::Json::object();
    entry_json.set("stage", kStageNames.name(entry.stage));
    switch (entry.stage) {
      case WalkerStage::kPending:
        break;
      case WalkerStage::kRunning:
        entry_json.set("checkpoint", entry.checkpoint.to_json());
        break;
      case WalkerStage::kDone:
        entry_json.set("result", result_to_json(entry.result))
            .set("injected_faults", entry.injected_faults);
        break;
    }
    walkers_json.push_back(std::move(entry_json));
  }
  util::Json elite_json = util::Json::array();
  for (const EliteSlot& slot : elite) {
    util::Json slot_json = util::Json::object();
    slot_json.set("has_entry", slot.has_entry)
        .set("cost", slot.cost)
        .set("values", util::Json::array_of(slot.values))
        .set("tick", slot.tick)
        .set("publisher", slot.publisher)
        .set("publishes", slot.publishes)
        .set("accepted", slot.accepted);
    elite_json.push_back(std::move(slot_json));
  }
  util::Json json = util::Json::object();
  json.set("schema", kSchema)
      .set("walkers", std::move(walkers_json))
      .set("elite", std::move(elite_json))
      .set("comm_clock", comm_clock)
      .set("comm_adoptions", comm_adoptions);
  return json;
}

PoolCheckpoint PoolCheckpoint::from_json(const util::Json& json) {
  return from_json(json, util::JsonPath{"parallel::PoolCheckpoint"});
}

PoolCheckpoint PoolCheckpoint::from_json(const util::Json& json,
                                         const util::JsonPath& path) {
  const util::JsonReader in(json, path,
                            {"schema", "walkers", "elite", "comm_clock",
                             "comm_adoptions"});
  if (const std::string schema = in.get<std::string>("schema");
      schema != kSchema) {
    in.fail("schema", "unsupported schema \"" + schema + "\"");
  }

  PoolCheckpoint cp;
  const std::vector<util::Json>& walkers = in.elements("walkers");
  if (walkers.empty()) in.fail("walkers", "no walker entries");
  for (std::size_t i = 0; i < walkers.size(); ++i) {
    const util::JsonPath at = in.path("walkers", i);
    WalkerEntry entry;
    // Each stage admits exactly its own members.
    entry.stage =
        util::JsonReader(walkers[i], at,
                         {"stage", "checkpoint", "result", "injected_faults"})
            .get("stage", kStageNames);
    if (entry.stage == WalkerStage::kPending) {
      (void)util::JsonReader(walkers[i], at, {"stage"});
    } else if (entry.stage == WalkerStage::kRunning) {
      const util::JsonReader w(walkers[i], at, {"stage", "checkpoint"});
      entry.checkpoint = core::Checkpoint::from_json(w.at("checkpoint"),
                                                     w.path("checkpoint"));
    } else {
      const util::JsonReader w(walkers[i], at,
                               {"stage", "result", "injected_faults"});
      entry.result = result_from_json(w.at("result"), w.path("result"));
      entry.injected_faults = w.get<std::uint64_t>("injected_faults");
    }
    cp.walkers.push_back(std::move(entry));
  }

  const std::vector<util::Json>& elite = in.elements("elite");
  for (std::size_t i = 0; i < elite.size(); ++i) {
    const util::JsonReader s(elite[i], in.path("elite", i),
                             {"has_entry", "cost", "values", "tick",
                              "publisher", "publishes", "accepted"});
    EliteSlot slot;
    slot.has_entry = s.get<bool>("has_entry");
    slot.cost = s.get<csp::Cost>("cost");
    slot.values = s.get<std::vector<int>>("values");
    slot.tick = s.get<std::uint64_t>("tick");
    slot.publisher = s.get<std::size_t>("publisher");
    slot.publishes = s.get<std::uint64_t>("publishes");
    slot.accepted = s.get<std::uint64_t>("accepted");
    cp.elite.push_back(std::move(slot));
  }
  cp.comm_clock = in.get<std::uint64_t>("comm_clock");
  cp.comm_adoptions = in.get<std::uint64_t>("comm_adoptions");
  return cp;
}

}  // namespace cspls::parallel
