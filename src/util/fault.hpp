// Deterministic fault injection — the testing story for partial failure.
//
// At the scale the ROADMAP targets, walker crashes, stalled cores and torn
// messages are the steady state, not the exception; the follow-up studies
// the paper spawned (the X10 cooperative teams, the Cell BE heterogeneous
// port) both had to keep solving while members dropped out.  This layer
// makes those failure modes *reproducible*: a FaultPlan names an injection
// site, a target walker, a 1-based probe count and a failure kind, and a
// Session fires the plan at exactly that probe — same seed, same plans,
// same crash, every run (the same philosophy that makes a sequential
// first-finisher pool the testing story for races).
//
// Sites (each probed by the layer that owns it):
//   walker_iteration  once per engine iteration (core::AdaptiveSearch);
//   elite_publish     before each communication publish (comm_hooks);
//   elite_adopt       at each adoption gate, reset-time or mid-walk;
//   service_dispatch  once per SolverService job attempt (retry testing);
//   checkpoint_capture at each preemption safe-point capture — a throw or
//                     corrupt here proves a failed capture hands out no
//                     checkpoint (the job reruns from its last resume
//                     point) instead of wedging the pool.
//
// Kinds:
//   throw    raise FaultInjected at the site (a crashing walker / attempt);
//   stall    bounded sleep of `stall_ms` (a wedged core; exercises the
//            service watchdog), capped at kMaxStallMs;
//   corrupt  detected data corruption: the site discards or scrambles its
//            payload and the session records the event ("corrupt-and-
//            report") — a scrambled configuration at walker_iteration, a
//            dropped message at the exchange sites.
//
// Plans enter a run only as values: the `faults` member of a SolveRequest
// (WalkerPoolOptions::faults), so a run's faults are a function of its
// request, like its walks.
//
// Compile-time gate: unless the build defines CSPLS_FAULT_INJECTION (the
// -DCSPLS_FAULT_INJECTION=ON CMake option), the free probe() below is an
// inline no-op and the runtimes never arm a session — production builds
// carry zero injection overhead.  Plan values and their JSON round-trip
// stay available in every build (a request carrying faults must survive the
// wire regardless of whether the receiving binary can fire them).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/names.hpp"

namespace cspls::util {
class Json;
struct JsonPath;
}  // namespace cspls::util

namespace cspls::util::fault {

/// FaultPlan::walker value matching every walker.
inline constexpr std::size_t kAnyWalker = static_cast<std::size_t>(-1);

/// Upper bound on a single stall, whatever the plan asks for: a stalled
/// walker must stay merely slow, never unbounded (shutdown joins it).
inline constexpr std::uint64_t kMaxStallMs = 10'000;

enum class Site : std::uint8_t {
  kWalkerIteration,    ///< once per engine iteration
  kElitePublish,       ///< before each communication publish
  kEliteAdopt,         ///< at each adoption gate (reset-time or mid-walk)
  kServiceDispatch,    ///< once per SolverService job attempt
  kCheckpointCapture,  ///< at each preemption safe-point capture
};
inline constexpr util::NameTable<Site, Site::kCheckpointCapture> kSiteNames(
    "walker_iteration", "elite_publish", "elite_adopt", "service_dispatch",
    "checkpoint_capture");
inline constexpr std::size_t kNumSites = kSiteNames.kSize;

enum class Kind : std::uint8_t {
  kThrow,    ///< raise FaultInjected at the site
  kStall,    ///< bounded sleep of stall_ms
  kCorrupt,  ///< detected corruption: site discards/scrambles and reports
};
inline constexpr util::NameTable<Kind, Kind::kCorrupt> kKindNames("throw",
                                                                  "stall",
                                                                  "corrupt");

[[nodiscard]] std::string_view name_of(Site site) noexcept;
[[nodiscard]] std::string_view name_of(Kind kind) noexcept;

/// One scheduled fault: fire `kind` at the `at_count`-th probe of `site`
/// by walker `walker` (1-based; kAnyWalker matches every walker).
struct FaultPlan {
  Site site = Site::kWalkerIteration;
  std::size_t walker = kAnyWalker;
  std::uint64_t at_count = 1;
  Kind kind = Kind::kThrow;
  std::uint64_t stall_ms = 10;  ///< sleep length for kStall (<= kMaxStallMs)

  [[nodiscard]] util::Json to_json() const;
  /// Throws std::invalid_argument naming the offending member.  The second
  /// form decodes a plan nested at `path` (a SolveRequest's `faults[i]`).
  [[nodiscard]] static FaultPlan from_json(const util::Json& json);
  [[nodiscard]] static FaultPlan from_json(const util::Json& json,
                                           const util::JsonPath& path);

  [[nodiscard]] bool operator==(const FaultPlan&) const = default;
};

/// The exception a kThrow plan raises.  Derives from std::runtime_error so
/// the pool's crash containment (which catches std::exception) records the
/// site/walker/count in the failed walker's error message.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(const FaultPlan& plan, std::size_t walker);
};

/// What a fired probe asks the site to do.  kThrow and kStall are handled
/// inside probe() (raise / sleep); kCorrupt is returned because only the
/// site knows what payload to scramble or drop.
enum class Action : std::uint8_t { kNone, kCorrupt };

/// Per-walker (or per-job) armed counters over one plan list.
/// Deliberately single-threaded: each walker owns its session, exactly like
/// its RNG stream, so probe counts are deterministic under every scheduling
/// mode.
class Session {
 public:
  /// `plans` may be null or empty (a disarmed session never fires) and
  /// must outlive the session.
  Session(const std::vector<FaultPlan>* plans, std::size_t walker) noexcept
      : plans_(plans == nullptr || plans->empty() ? nullptr : plans),
        walker_(walker) {}

  /// Count one probe of `site` and fire any matching plan: kThrow raises
  /// FaultInjected, kStall sleeps (bounded), kCorrupt is returned for the
  /// site to act on.  Counts are 1-based and per-site.
  Action probe(Site site);

  /// Plans fired so far (all kinds — the "report" half of corrupt-and-report).
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }
  [[nodiscard]] bool armed() const noexcept { return plans_ != nullptr; }

 private:
  const std::vector<FaultPlan>* plans_ = nullptr;
  std::size_t walker_ = kAnyWalker;
  std::uint64_t counts_[kNumSites] = {};
  std::uint64_t fired_ = 0;
};

// --- The compile-time gate --------------------------------------------
//
// Every injection site calls the free probe() below.  When the build does
// not define CSPLS_FAULT_INJECTION it is a constant-returning inline no-op
// — the call folds away entirely — and kCompiledIn lets the runtimes skip
// arming sessions (and the guard test assert exactly that).

#if defined(CSPLS_FAULT_INJECTION) && CSPLS_FAULT_INJECTION
inline constexpr bool kCompiledIn = true;
inline Action probe(Session* session, Site site) {
  return session == nullptr ? Action::kNone : session->probe(site);
}
#else
inline constexpr bool kCompiledIn = false;
inline Action probe(Session* /*session*/, Site /*site*/) noexcept {
  return Action::kNone;
}
#endif

}  // namespace cspls::util::fault
