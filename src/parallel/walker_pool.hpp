// WalkerPool — the unified parallel execution runtime.
//
// The paper studies independent multi-walk adaptive search across execution
// regimes; its follow-ups (the X10 study and the Cell BE study) show the
// interesting design space is *communication topology × scheduling mode*.
// WalkerPool makes that space first-class: one runtime, parameterized by
// three orthogonal policies instead of one hard-coded code path per regime.
//
//   Scheduling — how walkers execute:
//     * kThreads     real std::jthread walkers racing on the hardware;
//     * kSequential  the same walker population run to completion one after
//                    another (the sampling primitive of sim/); under
//                    kFirstFinisher the report replays the race on a
//                    deterministic iteration-synchronous machine (winner =
//                    the solved walker with the fewest iterations).
//
//   Communication (CommunicationPolicy, exchange.hpp) — who talks to whom
//     and what they exchange, as two orthogonal pluggable concepts:
//     * a Neighborhood (neighborhood.hpp): the exchange graph — isolated,
//       complete (one shared blackboard), ring, 2-D torus, hypercube;
//     * an ExchangeStrategy: what flows over the edges — nothing, periodic
//       elite publish/adopt-on-reset, whole-configuration migration
//       (island model), or a cost-decay elite pool whose entries age out;
//     * a CommMode: when adoption may happen — on partial resets only
//       (kOnReset, the historical semantics) or additionally mid-walk every
//       publish period (kAsync, asynchronous gossip through the engine's
//       mid-walk hook).
//
//   Termination — when the pool stops:
//     * kFirstFinisher    the first walker to solve wins and stops the rest
//                         (the paper's completion protocol);
//     * kBestAfterBudget  every walker runs its full budget; the best final
//                         cost wins (anytime/optimization regime).
//
// Walker i always receives RNG stream i of the master seed and a clone of
// the prototype, regardless of the policies — so scheduling, communication,
// termination and the sample sink can be toggled without perturbing any
// walker's trajectory (communication hooks excepted, since adoption is
// *meant* to change trajectories).
//
// Each walker's record is its WalkerOutcome's core::Result (outcome,
// counters, solo seconds); its cost-over-time series is what the sample
// sink receives while it walks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/result.hpp"
#include "core/stop_token.hpp"
#include "csp/problem.hpp"
#include "parallel/checkpoint.hpp"
#include "parallel/exchange.hpp"
#include "util/fault.hpp"

namespace cspls::parallel {

/// Winner value of a report in which no walker produced a solution.
inline constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

enum class Scheduling {
  kThreads,     ///< real std::jthread walkers racing on the hardware
  kSequential,  ///< walkers executed to completion one after another
};

enum class Termination {
  kFirstFinisher,    ///< first solver stops the pool (completion protocol)
  kBestAfterBudget,  ///< all walkers run their budget; best cost wins
};

struct WalkerPoolOptions {
  /// Number of parallel walkers (the paper's "number of cores").
  std::size_t num_walkers = 4;

  /// Master seed; walker i uses RNG stream i (non-overlapping subsequences).
  std::uint64_t master_seed = 0x5eedULL;

  /// Engine parameters; when unset, each walker uses the model's tuning
  /// defaults (Params::from_hints).
  std::optional<core::Params> params;

  /// Cap on concurrently running OS threads under Scheduling::kThreads
  /// (0 = one thread per walker).  With more walkers than threads, walkers
  /// run in waves; wall times then measure throughput, not latency.
  std::size_t max_threads = 0;

  Scheduling scheduling = Scheduling::kThreads;
  CommunicationPolicy communication;
  Termination termination = Termination::kFirstFinisher;

  /// Fault-injection plans for this run, the only way faults enter it.
  /// Armed only in CSPLS_FAULT_INJECTION builds; in production builds the
  /// plans are carried but never fire (the sites are no-ops).
  std::vector<util::fault::FaultPlan> faults;

  /// When set, every walker's first walk starts from this configuration
  /// instead of a random one (retry-with-checkpoint; see
  /// core::Hooks::warm_start — RNG streams are unaffected).  Must match the
  /// problem's num_variables.
  std::optional<std::vector<int>> warm_start;

  /// Liveness counter bumped by every walker (see core::Hooks::heartbeat);
  /// null disables.  Must outlive run().
  std::atomic<std::uint64_t>* heartbeat = nullptr;

  /// Cost-sample sink, the one per-walker cost series (the serving tier's
  /// streamed samples, the ablation's anytime curves): called with
  /// (walker_id, iteration, current cost) at iteration 0 and every
  /// `sample_sink_period` iterations of each walk (see core::Hooks::sample).
  /// Invoked from walker bodies — concurrently under Scheduling::kThreads,
  /// but each walker from one thread only, so a sink that writes only
  /// walker_id's own storage needs no lock.  Purely observational and
  /// RNG-neutral: enabling it cannot change the outcome of a seeded run.
  /// Must outlive run().
  std::function<void(std::size_t, std::uint64_t, csp::Cost)> sample_sink;
  std::uint64_t sample_sink_period = 0;  ///< 0 disables the sink

  /// Cooperative preemption flag: when it becomes true, every walker drains
  /// to its next safe point (the engine's stop-poll site) and stops with
  /// StopCause::kPreempted; not-yet-started walkers never start.  Weaker
  /// than cancellation (cancel flags and chained race flags outrank it) but
  /// stronger than the deadline.  Null disables; must outlive run().
  const std::atomic<bool>* preempt = nullptr;

  /// When non-null and the run is preempted without having solved, run()
  /// assembles the drained walkers (per-walker checkpoints, final results
  /// of already-finished walkers, the ElitePool contents and exchange
  /// counters) into a PoolCheckpoint here, one that passes the check a
  /// resume makes.  Left empty when a mid-run walker produced no valid
  /// checkpoint (a torn or failed capture) or walkers observed mixed
  /// interruptions: the report still says kPreempted, and callers rerun
  /// from their last resume point.  Must outlive run().
  std::optional<PoolCheckpoint>* checkpoint_out = nullptr;

  /// When set, the run resumes from this checkpoint instead of starting
  /// fresh: mid-run walkers continue byte-identically from their captured
  /// state, finished walkers replay their recorded outcome, pending
  /// walkers run from their untouched RNG stream, and the communication
  /// state picks up where it stopped.  Walker count must match
  /// num_walkers and elite slots the communication policy's; every
  /// configuration must be a permutation of the instance's values, and
  /// every stated cost its configuration's.  Overrides warm_start.
  std::optional<PoolCheckpoint> resume;
};

struct WalkerOutcome {
  std::size_t walker_id = 0;
  core::Result result;
  /// Fault plans that fired in this walker's session (0 in production
  /// builds and un-faulted runs) — the "report" half of corrupt-and-report.
  std::uint64_t injected_faults = 0;

  /// True when this walker died on an exception (crash containment):
  /// result.stop_cause == kFailed and result.error holds the message.
  [[nodiscard]] bool failed() const noexcept {
    return result.stop_cause == core::StopCause::kFailed;
  }
};

struct MultiWalkReport {
  bool solved = false;
  /// Index of the walker whose solution was accepted, or kNoWinner.
  std::size_t winner = kNoWinner;
  /// Wall-clock time from launch to the last walker having stopped.  Under
  /// sequential scheduling this is the emulated machine's wall clock: the
  /// max of the walkers' solo runtimes.
  double wall_seconds = 0.0;
  /// Wall-clock time from launch to the winning solution (completion time).
  double time_to_solution_seconds = 0.0;
  /// The accepted result (winner's, or best-cost when nobody solved).
  core::Result best;
  /// Every walker's outcome, indexed by walker id.
  std::vector<WalkerOutcome> walkers;
  /// Publish events across all communication slots, accepted or not (0
  /// under Exchange::kNone).
  std::uint64_t comm_publishes = 0;
  /// Improving keep-best publishes accepted across all slots (0 under
  /// Exchange::kNone, and 0 under pure migration — unconditional overwrites
  /// carry no acceptance signal).
  std::uint64_t elite_accepted = 0;
  /// Adoption events: configurations actually pulled from an in-neighbour
  /// slot, whether at reset time or — under CommMode::kAsync — mid-walk.
  std::uint64_t comm_adoptions = 0;
  /// True when an external cancel flag or deadline cut the pool short: at
  /// least one walker was stopped (or never started) because the caller's
  /// StopToken fired.  Race losers interrupted by the pool's own
  /// first-finisher completion flag do NOT set this (each walk records the
  /// actual source that stopped it, so attribution is exact).  On such
  /// runs wall_seconds and time_to_solution_seconds are still populated
  /// (the anytime contract): `best` is the best configuration reached
  /// before the cut-off.
  bool interrupted = false;
  /// The external source when `interrupted`: kCancel, kPreempted or
  /// kDeadline (cancel wins over preemption, which wins over the deadline,
  /// when walkers observed several).  kNone otherwise.
  core::StopCause interrupt_cause = core::StopCause::kNone;
  /// Walkers that died on an exception (crash containment): each is
  /// recorded with StopCause::kFailed and its message in result.error;
  /// survivors' trajectories are unaffected.  Equal to walkers.size() on an
  /// all-failed run — the pool then still returns a structured report with
  /// solved == false, it never terminates the process.
  std::size_t failed_walkers = 0;
  /// Total fault plans fired across the pool (0 in production builds).
  std::uint64_t faults_injected = 0;

  /// True when every walker died (failed_walkers == walkers.size() != 0):
  /// the report carries no usable configuration.
  [[nodiscard]] bool all_failed() const noexcept {
    return !walkers.empty() && failed_walkers == walkers.size();
  }

  [[nodiscard]] bool has_winner() const noexcept { return winner != kNoWinner; }

  /// Aggregate iteration count across walkers (total work performed).
  [[nodiscard]] std::uint64_t total_iterations() const noexcept;
};

/// Validate `options` up front, throwing std::invalid_argument naming the
/// offending knob: a zero walker population, an exchanging strategy with a
/// zero publish period, an adopt probability outside [0, 1], an isolated
/// neighbourhood asked to exchange, a decay-elite strategy without a decay
/// bound, a plain elite strategy with one (kElite never forgets — spell
/// kDecayElite), or CommMode::kAsync without an exchanging strategy (there
/// is nothing to gossip).  Called by WalkerPool::run, so a degenerate
/// configuration fails loudly instead of silently running without
/// communication; api::Solver surfaces the same error as a rejected
/// request.
void validate_options(const WalkerPoolOptions& options);

/// The unified runtime: executes one walker population under the configured
/// scheduling × communication × termination policies.
class WalkerPool {
 public:
  explicit WalkerPool(WalkerPoolOptions options) noexcept
      : options_(std::move(options)) {}

  /// Run the pool on clones of `prototype` and report the accepted outcome.
  [[nodiscard]] MultiWalkReport run(const csp::Problem& prototype) const;

  /// Same, honouring an external StopToken under every Scheduling mode:
  /// cancellation or deadline expiry stops racing threads within one engine
  /// polling period and cuts sequential populations short (walkers
  /// not yet started report interrupted with zero iterations).  A
  /// never-firing token makes this byte-for-byte identical to run(prototype)
  /// for a fixed master seed — the token is polled, never consulted for
  /// randomness.
  [[nodiscard]] MultiWalkReport run(const csp::Problem& prototype,
                                    const core::StopToken& external) const;

 private:
  WalkerPoolOptions options_;
};

}  // namespace cspls::parallel
