#include "util/fault.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "util/json.hpp"

namespace cspls::util::fault {

std::string_view name_of(Site site) noexcept { return kSiteNames.name(site); }

std::string_view name_of(Kind kind) noexcept { return kKindNames.name(kind); }

util::Json FaultPlan::to_json() const {
  util::Json json = util::Json::object();
  json.set("site", std::string(name_of(site)));
  if (walker != kAnyWalker) {
    json.set("walker", static_cast<std::uint64_t>(walker));
  }
  json.set("at", at_count)
      .set("kind", std::string(name_of(kind)))
      .set("stall_ms", stall_ms);
  return json;
}

FaultPlan FaultPlan::from_json(const util::Json& json) {
  return from_json(json, util::JsonPath{"FaultPlan"});
}

FaultPlan FaultPlan::from_json(const util::Json& json,
                               const util::JsonPath& path) {
  const util::JsonReader in(json, path,
                            {"site", "walker", "at", "kind", "stall_ms"});
  FaultPlan plan;
  plan.site = in.get("site", kSiteNames);
  plan.walker = in.get("walker", plan.walker);
  plan.at_count = in.get("at", plan.at_count);
  if (plan.at_count == 0) in.fail("at", "is 1-based and must be >= 1");
  plan.kind = in.get("kind", kKindNames, plan.kind);
  plan.stall_ms = in.get("stall_ms", plan.stall_ms);
  return plan;
}

FaultInjected::FaultInjected(const FaultPlan& plan, std::size_t walker)
    : std::runtime_error(
          "injected fault: " + std::string(name_of(plan.kind)) + " at " +
          std::string(name_of(plan.site)) + " count " +
          std::to_string(plan.at_count) + " (walker " +
          (walker == kAnyWalker ? std::string("*")
                                : std::to_string(walker)) +
          ")") {}

Action Session::probe(Site site) {
  if (plans_ == nullptr) return Action::kNone;
  const std::uint64_t count = ++counts_[static_cast<std::size_t>(site)];
  Action action = Action::kNone;
  for (const FaultPlan& plan : *plans_) {
    if (plan.site != site || plan.at_count != count) continue;
    if (plan.walker != kAnyWalker && plan.walker != walker_) continue;
    ++fired_;
    switch (plan.kind) {
      case Kind::kThrow:
        throw FaultInjected(plan, walker_);
      case Kind::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(plan.stall_ms, kMaxStallMs)));
        break;
      case Kind::kCorrupt:
        action = Action::kCorrupt;
        break;
    }
  }
  return action;
}

}  // namespace cspls::util::fault
