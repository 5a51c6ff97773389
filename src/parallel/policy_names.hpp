// Single source of truth for policy-name <-> enum mapping.
//
// Every layer that spells a WalkerPool policy on a wire or in a CSV — the
// JSON solve API (api/solve.cpp), the bench harnesses and the README's
// policy matrix — maps through these tables (util/names.hpp): one table per
// enum, read by `name_of`, its `*_from_name` parser and policy_names_hint.
//
// `name_of` is total; the `*_from_name` parsers return std::nullopt for
// unknown names (callers attach the valid alternatives via
// `policy_names_hint`).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/restart_policy.hpp"
#include "parallel/walker_pool.hpp"
#include "util/names.hpp"

namespace cspls::parallel {

inline constexpr util::NameTable<Scheduling, Scheduling::kEmulatedRace>
    kSchedulingNames("threads", "sequential", "emulated-race");
inline constexpr util::NameTable<Neighborhood, Neighborhood::kHypercube>
    kNeighborhoodNames("isolated", "complete", "ring", "torus", "hypercube");
inline constexpr util::NameTable<Exchange, Exchange::kDecayElite>
    kExchangeNames("none", "elite", "migration", "decay-elite");
inline constexpr util::NameTable<CommMode, CommMode::kAsync> kCommModeNames(
    "on_reset", "async");
inline constexpr util::NameTable<Termination, Termination::kBestAfterBudget>
    kTerminationNames("first-finisher", "best-after-budget");
inline constexpr util::NameTable<core::RestartSchedule,
                                 core::RestartSchedule::kLuby>
    kRestartScheduleNames("fixed", "luby");

[[nodiscard]] constexpr std::string_view name_of(Scheduling scheduling) {
  return kSchedulingNames.name(scheduling);
}
[[nodiscard]] constexpr std::string_view name_of(Neighborhood neighborhood) {
  return kNeighborhoodNames.name(neighborhood);
}
[[nodiscard]] constexpr std::string_view name_of(Exchange exchange) {
  return kExchangeNames.name(exchange);
}
[[nodiscard]] constexpr std::string_view name_of(CommMode mode) {
  return kCommModeNames.name(mode);
}
[[nodiscard]] constexpr std::string_view name_of(Termination termination) {
  return kTerminationNames.name(termination);
}
[[nodiscard]] constexpr std::string_view name_of(
    core::RestartSchedule schedule) {
  return kRestartScheduleNames.name(schedule);
}

[[nodiscard]] inline std::optional<Scheduling> scheduling_from_name(
    std::string_view name) {
  return kSchedulingNames.parse(name);
}
[[nodiscard]] inline std::optional<Neighborhood> neighborhood_from_name(
    std::string_view name) {
  return kNeighborhoodNames.parse(name);
}
[[nodiscard]] inline std::optional<Exchange> exchange_from_name(
    std::string_view name) {
  return kExchangeNames.parse(name);
}
[[nodiscard]] inline std::optional<CommMode> comm_mode_from_name(
    std::string_view name) {
  return kCommModeNames.parse(name);
}
[[nodiscard]] inline std::optional<Termination> termination_from_name(
    std::string_view name) {
  return kTerminationNames.parse(name);
}
[[nodiscard]] inline std::optional<core::RestartSchedule>
restart_schedule_from_name(std::string_view name) {
  return kRestartScheduleNames.parse(name);
}

/// One line per policy axis, for error messages and --help text.
[[nodiscard]] inline std::string policy_names_hint() {
  return "scheduling: " + kSchedulingNames.joined() +
         "\nneighborhood: " + kNeighborhoodNames.joined() +
         "\nexchange: " + kExchangeNames.joined() +
         "\ncomm_mode: " + kCommModeNames.joined() +
         "\ntermination: " + kTerminationNames.joined() +
         "\nrestart_schedule: " + kRestartScheduleNames.joined();
}

}  // namespace cspls::parallel
