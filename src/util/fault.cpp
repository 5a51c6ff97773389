#include "util/fault.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "util/json.hpp"

namespace cspls::util::fault {

namespace {

std::string names_hint() {
  return "sites: " + kSiteNames.joined() + "; kinds: " + kKindNames.joined();
}

[[noreturn]] void bad_spec(std::string_view plan, const std::string& detail) {
  throw std::invalid_argument("CSPLS_FAULTS plan \"" + std::string(plan) +
                              "\": " + detail + " (" + names_hint() + ")");
}

std::uint64_t parse_u64_field(std::string_view plan, std::string_view field,
                              std::string_view name) {
  std::uint64_t value = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc{} || ptr != end) {
    bad_spec(plan, "field \"" + std::string(name) +
                       "\" must be an integer in [0, 2^64), got \"" +
                       std::string(field) + "\"");
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = text.find(sep);
    out.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return out;
}

FaultPlan parse_plan(std::string_view text) {
  const std::vector<std::string_view> fields = split(text, ':');
  if (fields.size() < 4 || fields.size() > 5) {
    bad_spec(text, "expected site:walker:at_count:kind[:stall_ms]");
  }
  FaultPlan plan;
  const std::optional<Site> site = kSiteNames.parse(fields[0]);
  if (!site.has_value()) {
    bad_spec(text, "unknown site \"" + std::string(fields[0]) + "\"");
  }
  plan.site = *site;
  plan.walker = fields[1] == "*"
                    ? kAnyWalker
                    : static_cast<std::size_t>(
                          parse_u64_field(text, fields[1], "walker"));
  plan.at_count = parse_u64_field(text, fields[2], "at_count");
  if (plan.at_count == 0) {
    bad_spec(text, "at_count is 1-based and must be >= 1");
  }
  const std::optional<Kind> kind = kKindNames.parse(fields[3]);
  if (!kind.has_value()) {
    bad_spec(text, "unknown kind \"" + std::string(fields[3]) + "\"");
  }
  plan.kind = *kind;
  if (fields.size() == 5) {
    plan.stall_ms = parse_u64_field(text, fields[4], "stall_ms");
  }
  return plan;
}

}  // namespace

std::string_view name_of(Site site) noexcept { return kSiteNames.name(site); }

std::string_view name_of(Kind kind) noexcept { return kKindNames.name(kind); }

std::string FaultPlan::to_string() const {
  std::string out(name_of(site));
  out += ':';
  out += walker == kAnyWalker ? "*" : std::to_string(walker);
  out += ':';
  out += std::to_string(at_count);
  out += ':';
  out += name_of(kind);
  if (kind == Kind::kStall) {
    out += ':';
    out += std::to_string(stall_ms);
  }
  return out;
}

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

Schedule Schedule::parse(std::string_view spec) {
  std::vector<FaultPlan> plans;
  for (const std::string_view plan : split(spec, ';')) {
    if (plan.empty()) continue;  // tolerate trailing/double separators
    plans.push_back(parse_plan(plan));
  }
  return Schedule(std::move(plans));
}

const Schedule& Schedule::from_env() {
  static const Schedule schedule = [] {
    const char* spec = std::getenv("CSPLS_FAULTS");
    return spec == nullptr ? Schedule{} : parse(spec);
  }();
  return schedule;
}

Schedule Schedule::with_env(std::vector<FaultPlan> plans) {
  const Schedule& env = from_env();
  plans.insert(plans.end(), env.plans_.begin(), env.plans_.end());
  return Schedule(std::move(plans));
}

Action Session::probe(Site site) {
  const std::uint64_t count = ++counts_[static_cast<std::size_t>(site)];
  if (schedule_ == nullptr) return Action::kNone;
  Action action = Action::kNone;
  for (const FaultPlan& plan : schedule_->plans()) {
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

std::uint64_t Session::count(Site site) const noexcept {
  return counts_[static_cast<std::size_t>(site)];
}

}  // namespace cspls::util::fault
