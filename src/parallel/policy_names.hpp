// Single source of truth for policy-name <-> enum mapping.
//
// Every layer that spells a WalkerPool policy on a wire or in a CSV — the
// JSON solve API (api/solve.cpp), the bench harnesses and the README's
// policy matrix — maps through these tables.  Adding an enumerator without
// extending its table here is a compile error at the switch, not a silent
// "?" leaking into a CSV.
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

namespace cspls::parallel {

[[nodiscard]] constexpr std::string_view name_of(Scheduling scheduling) {
  switch (scheduling) {
    case Scheduling::kThreads:
      return "threads";
    case Scheduling::kSequential:
      return "sequential";
    case Scheduling::kEmulatedRace:
      return "emulated-race";
  }
  return "threads";
}

[[nodiscard]] constexpr std::string_view name_of(Neighborhood neighborhood) {
  switch (neighborhood) {
    case Neighborhood::kIsolated:
      return "isolated";
    case Neighborhood::kComplete:
      return "complete";
    case Neighborhood::kRing:
      return "ring";
    case Neighborhood::kTorus:
      return "torus";
    case Neighborhood::kHypercube:
      return "hypercube";
  }
  return "isolated";
}

[[nodiscard]] constexpr std::string_view name_of(Exchange exchange) {
  switch (exchange) {
    case Exchange::kNone:
      return "none";
    case Exchange::kElite:
      return "elite";
    case Exchange::kMigration:
      return "migration";
    case Exchange::kDecayElite:
      return "decay-elite";
  }
  return "none";
}

[[nodiscard]] constexpr std::string_view name_of(CommMode mode) {
  switch (mode) {
    case CommMode::kOnReset:
      return "on_reset";
    case CommMode::kAsync:
      return "async";
  }
  return "on_reset";
}

[[nodiscard]] constexpr std::string_view name_of(Termination termination) {
  switch (termination) {
    case Termination::kFirstFinisher:
      return "first-finisher";
    case Termination::kBestAfterBudget:
      return "best-after-budget";
  }
  return "first-finisher";
}

[[nodiscard]] constexpr std::string_view name_of(
    core::RestartSchedule schedule) {
  switch (schedule) {
    case core::RestartSchedule::kFixed:
      return "fixed";
    case core::RestartSchedule::kLuby:
      return "luby";
  }
  return "fixed";
}

[[nodiscard]] inline std::optional<Scheduling> scheduling_from_name(
    std::string_view name) {
  if (name == "threads") return Scheduling::kThreads;
  if (name == "sequential") return Scheduling::kSequential;
  if (name == "emulated-race") return Scheduling::kEmulatedRace;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<Neighborhood> neighborhood_from_name(
    std::string_view name) {
  if (name == "isolated") return Neighborhood::kIsolated;
  if (name == "complete") return Neighborhood::kComplete;
  if (name == "ring") return Neighborhood::kRing;
  if (name == "torus") return Neighborhood::kTorus;
  if (name == "hypercube") return Neighborhood::kHypercube;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<Exchange> exchange_from_name(
    std::string_view name) {
  if (name == "none") return Exchange::kNone;
  if (name == "elite") return Exchange::kElite;
  if (name == "migration") return Exchange::kMigration;
  if (name == "decay-elite") return Exchange::kDecayElite;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<CommMode> comm_mode_from_name(
    std::string_view name) {
  if (name == "on_reset") return CommMode::kOnReset;
  if (name == "async") return CommMode::kAsync;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<Termination> termination_from_name(
    std::string_view name) {
  if (name == "first-finisher") return Termination::kFirstFinisher;
  if (name == "best-after-budget") return Termination::kBestAfterBudget;
  return std::nullopt;
}

[[nodiscard]] inline std::optional<core::RestartSchedule>
restart_schedule_from_name(std::string_view name) {
  if (name == "fixed") return core::RestartSchedule::kFixed;
  if (name == "luby") return core::RestartSchedule::kLuby;
  return std::nullopt;
}

/// One line per policy axis, for error messages and --help text.
[[nodiscard]] inline std::string policy_names_hint() {
  return "scheduling: threads | sequential | emulated-race\n"
         "neighborhood: isolated | complete | ring | torus | hypercube\n"
         "exchange: none | elite | migration | decay-elite\n"
         "comm_mode: on_reset | async\n"
         "termination: first-finisher | best-after-budget\n"
         "restart_schedule: fixed | luby";
}

}  // namespace cspls::parallel
