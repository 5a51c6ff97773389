// The declarative solve API: a solve expressed as a *value*.
//
// SolveRequest names everything a run needs — the instance (a spec string
// like "costas:18"), the walker population, the WalkerPool policies by
// name, optional engine-parameter overrides, a master seed and an optional
// wall-clock deadline.  SolveReport is the full outcome: accepted result,
// timings, termination cause and per-walker statistics.  Both round-trip
// through util::Json, so requests and reports can cross a process boundary
// (files, pipes, HTTP bodies) and re-encode byte-identically.
//
// Determinism contract: a request with no deadline and no cancellation,
// executed by api::Solver, reproduces the equivalent direct
// WalkerPool::run byte-for-byte for a fixed master seed (winner,
// per-walker iterations, costs, solutions) — the API layer adds naming and
// transport, never behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "csp/cost.hpp"
#include "parallel/checkpoint.hpp"
#include "parallel/policy_names.hpp"
#include "parallel/walker_pool.hpp"
#include "util/json.hpp"

namespace cspls::api {

// --- Policy names -----------------------------------------------------
//
// The wire names of the WalkerPool policy enums (README's policy table)
// live in parallel/policy_names.hpp — the single source of truth shared
// with the bench harnesses — and `name_of` is re-exported here so API users
// need not reach below the api/ layer.

using parallel::name_of;

// --- SolveRequest -----------------------------------------------------

/// Per-job retry discipline for api::SolverService ("retry" on the wire).
/// An attempt is retried when it crashes wholesale (every walker failed, or
/// the dispatch path threw) or the watchdog declared it stalled — never
/// when it merely failed to solve.  Backoff before attempt n (n >= 2) is
///
///   base_backoff_ms * multiplier^(n-2) * (1 + jitter * u),  u ~ U[0,1)
///
/// with u drawn from an RNG seeded by the job's master seed, so retry
/// timing is as reproducible as the walks themselves.  The backoff
/// saturates at one day (86'400'000 ms), whatever the base and multiplier.
struct RetryPolicy {
  /// Total attempts, the first included (1 = never retry, the default).
  std::uint32_t max_attempts = 1;
  std::uint64_t base_backoff_ms = 0;  ///< backoff before the first retry
  double multiplier = 2.0;            ///< exponential growth per retry
  double jitter = 0.0;                ///< uniform jitter fraction in [0, 1]

  /// Throws std::invalid_argument naming the offending member: zero
  /// max_attempts, a multiplier below 1 or a jitter outside [0, 1].  The
  /// one check behind SolverService::submit, Solver::solve and the JSON
  /// decoder.
  void validate() const;

  [[nodiscard]] bool operator==(const RetryPolicy&) const = default;
};

struct SolveRequest {
  /// Instance spec, e.g. "costas:18" (problems::parse_spec grammar).
  std::string problem;

  /// Walker population (the paper's "number of cores").
  std::size_t walkers = 4;

  /// Master seed; walker i uses RNG stream i.
  std::uint64_t seed = 0x5eedULL;

  parallel::Scheduling scheduling = parallel::Scheduling::kThreads;
  /// The communication pair: who talks to whom (`neighborhood`) and what
  /// flows over the edges (`exchange`).
  parallel::Neighborhood neighborhood = parallel::Neighborhood::kIsolated;
  parallel::Exchange exchange = parallel::Exchange::kNone;
  /// When adoption may happen ("comm_mode" on the wire): "on_reset" = only
  /// when a partial reset fires (the historical semantics), "async" = also
  /// through a staleness-bounded pull every `comm_period` iterations while
  /// walking (asynchronous gossip).  Requires an exchanging strategy.
  parallel::CommMode comm_mode = parallel::CommMode::kOnReset;
  parallel::Termination termination = parallel::Termination::kFirstFinisher;

  /// Exchange knobs (ignored under Exchange::kNone): publish period in
  /// iterations, adopt-on-reset probability, staleness bound in publish
  /// ticks (required for "decay-elite", optional for "migration").
  std::uint64_t comm_period = 1000;
  double comm_adopt_probability = 0.5;
  std::uint64_t comm_decay = 0;

  /// Cap on concurrently running OS threads (0 = one per walker).
  std::size_t max_threads = 0;

  /// Wall-clock budget in milliseconds; 0 = none.  When it expires the run
  /// stops within one engine polling period and the report carries the best
  /// configuration reached (deadline_expired is set).  A budget the steady
  /// clock cannot represent (about 9.2e12 ms) saturates to none.
  std::uint64_t deadline_ms = 0;

  /// Engine-parameter overrides; absent = the model's tuning defaults.
  std::optional<core::Params> params;

  /// Retry discipline for jobs run through api::SolverService (ignored by
  /// the synchronous api::Solver, which runs exactly one attempt).
  RetryPolicy retry;

  /// Watchdog budget in milliseconds for api::SolverService: when a
  /// running attempt makes no engine progress (no heartbeat) for this long
  /// it is declared stalled, cut short, and retried degraded (half the
  /// walkers).  0 disables the watchdog; a budget longer than the clock
  /// can measure never fires.
  std::uint64_t watchdog_stall_ms = 0;

  /// Start every walker's first walk from this configuration instead of a
  /// random one (a checkpoint; RNG streams are unaffected).  The service
  /// fills this on retries with the failed attempt's best configuration.
  std::optional<std::vector<int>> warm_start;

  /// Fault-injection plans ("faults" on the wire).  Carried in every build;
  /// armed only when the binary was compiled with CSPLS_FAULT_INJECTION.
  std::vector<util::fault::FaultPlan> faults;

  /// Resume a previously preempted run from its PoolCheckpoint
  /// ("resume_from" on the wire, the strict "cspls-pool-checkpoint/2"
  /// document).  The request's problem/walkers/seed/policies must match the
  /// preempted run's — the checkpoint carries *state*, not configuration —
  /// and the resumed run then reproduces the uninterrupted run byte-for-byte
  /// (trajectories, RNG positions, counters).  Mutually exclusive with
  /// warm_start.
  std::optional<parallel::PoolCheckpoint> resume_from;

  /// The equivalent WalkerPool configuration.
  [[nodiscard]] parallel::WalkerPoolOptions to_pool_options() const;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] std::string to_json_string(int indent = 0) const;
  /// Throws std::invalid_argument naming the offending member on a
  /// malformed document (unknown policy name, wrong type, bad number).
  [[nodiscard]] static SolveRequest from_json(const util::Json& json);
  [[nodiscard]] static SolveRequest from_json_string(std::string_view text);

  [[nodiscard]] bool operator==(const SolveRequest&) const = default;
};

// --- SolveReport ------------------------------------------------------

/// Per-walker statistics (core::RunStats plus identity/termination bits).
struct WalkerReport {
  std::size_t id = 0;
  bool solved = false;
  bool interrupted = false;
  csp::Cost cost = csp::kInfiniteCost;
  std::uint64_t iterations = 0;
  std::uint64_t swaps = 0;
  std::uint64_t plateau_moves = 0;
  std::uint64_t local_minima = 0;
  std::uint64_t resets = 0;
  std::uint64_t restarts = 0;
  std::uint64_t cost_evaluations = 0;
  double seconds = 0.0;
  /// Crash containment: this walker died on an exception; `error` holds
  /// the message and the counters describe the walk up to nothing — a
  /// failed walker reports zero work and an infinite cost.
  bool failed = false;
  std::string error;

  [[nodiscard]] bool operator==(const WalkerReport&) const = default;
};

struct SolveReport {
  /// Echo of the request's instance spec (canonical form).
  std::string problem;

  bool solved = false;
  /// The run was stopped by the caller's cancellation flag.
  bool cancelled = false;
  /// The run was cut short by the request's deadline.  Exactly one of the
  /// paper's termination causes applies per run: solved (a walker hit the
  /// target), budget exhausted (all walkers ran dry), cancelled, or
  /// deadline_expired; the latter two still carry the best configuration
  /// reached (the anytime contract).
  bool deadline_expired = false;
  /// The run was suspended at a safe point by a preemption request.  The
  /// PoolCheckpoint it captured is handed out-of-band via
  /// SolveCallbacks::checkpoint_out, never embedded here; the service
  /// requeues the job with it and reports only the resumed run.  A
  /// preemption whose capture failed still sets this (and not `cancelled`),
  /// but hands out no checkpoint: the service then requeues the job from
  /// its last resume point.
  bool preempted = false;

  /// Winning walker id, or parallel::kNoWinner.
  std::size_t winner = parallel::kNoWinner;
  /// Best cost reached (0 = solved).
  csp::Cost cost = csp::kInfiniteCost;
  /// Wall-clock from launch to the last walker stopping; on cancelled or
  /// deadline-expired runs, the time the pool actually had.
  double wall_seconds = 0.0;
  /// Wall-clock from launch to the accepted solution (= wall_seconds when
  /// nobody solved).
  double time_to_solution_seconds = 0.0;

  std::uint64_t total_iterations = 0;
  /// Exchange-traffic counters: publish events of any kind, improving
  /// keep-best accepts, and configurations actually adopted from an
  /// in-neighbour slot (reset-time or mid-walk).
  std::uint64_t comm_publishes = 0;
  std::uint64_t elite_accepted = 0;
  std::uint64_t comm_adoptions = 0;
  /// Walkers that died on an exception (each carries failed + error in its
  /// WalkerReport); survivors are unaffected.
  std::size_t failed_walkers = 0;
  /// Attempts the serving layer ran to produce this report (1 = first try;
  /// always 1 from the synchronous api::Solver).
  std::uint32_t attempts = 1;
  /// True when the watchdog degraded the job (fewer walkers) on a retry.
  bool degraded = false;

  /// The accepted configuration (winner's solution, or best reached).
  std::vector<int> solution;
  std::vector<WalkerReport> walkers;

  [[nodiscard]] bool has_winner() const noexcept {
    return winner != parallel::kNoWinner;
  }

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] std::string to_json_string(int indent = 0) const;
  [[nodiscard]] static SolveReport from_json(const util::Json& json);
  [[nodiscard]] static SolveReport from_json_string(std::string_view text);

  [[nodiscard]] bool operator==(const SolveReport&) const = default;
};

}  // namespace cspls::api
