// Single source of truth for policy-name <-> enum mapping.
//
// Every layer that spells a WalkerPool policy on a wire or in a CSV — the
// JSON solve API (api/solve.cpp), the bench harnesses and the README's
// policy matrix — maps through these tables (util/names.hpp): one table per
// enum.  `name_of` is total; `table.parse` returns std::nullopt for an
// unknown name and `table.joined()` lists the valid ones.
#pragma once

#include <string_view>

#include "core/restart_policy.hpp"
#include "parallel/walker_pool.hpp"
#include "util/names.hpp"

namespace cspls::parallel {

inline constexpr util::NameTable<Scheduling, Scheduling::kSequential>
    kSchedulingNames("threads", "sequential");
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

}  // namespace cspls::parallel
