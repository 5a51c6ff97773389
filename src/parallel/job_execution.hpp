// JobExecution — one job's walkers, from start to report: the one walker
// driver behind WalkerPool::run and every FusedRun member.
//
// run() hands the walker ids to run_tickets(), the one ticket loop and the
// only function under src/parallel/ that starts a thread, then finalizes.
// Ordered pools (kSequential, or kThreads capped at max_threads = 1) run
// inline on the caller in walker order; a kThreads pool runs on min(k,
// max_threads or k, 16 x hardware threads) jthreads.
//
// Each walker's whole record is one PoolCheckpoint::WalkerEntry.  A walker
// ends the run kDone (its result and fired faults, also when replayed from
// the resume checkpoint), kRunning (its interrupted result plus the capture
// its preemption took), or — when the start gate stops it — with the stage
// and state it was resumed with (kPending on a fresh run).  finalize()
// builds every report, and a preempted run's checkpoint, from the entries.
//
// Every walker passes one start gate: once a stop source has fired, a
// walker that has not started records interrupted, zero iterations and the
// first cause latched, instead of paying a clone + initial evaluation.  The
// cause is what the walker's own first poll would record (StopToken::poll's
// order: cancel > chained flags, the race's completion flag among them >
// preempt > deadline).  A resumed walker the checkpoint records as finished
// replays before the gate, even after a stop.
//
// Byte-identity invariant: for a fixed master seed every walker's
// trajectory depends only on (options, prototype, stream id) — never on
// which thread ran it — so a fused member's report is byte-for-byte the
// solo WalkerPool::run report (timing fields excepted).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/stop_token.hpp"
#include "parallel/checkpoint.hpp"
#include "parallel/walker_pool.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cspls::parallel::detail {

/// Runs body(i) once for every i < count, each index taken from one atomic
/// ticket: inline on the caller when threads <= 1, else on `threads`
/// jthreads joined before returning.  `body` must be thread-safe across
/// distinct indices.
void run_tickets(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body);

class JobExecution {
 public:
  /// Validates `options` (validate_options, the warm start, and the resume
  /// checkpoint through the same check every handed-out checkpoint passes)
  /// and preallocates every per-run structure; throws
  /// std::invalid_argument before any walker work on a degenerate
  /// configuration.  `prototype` and `options` are borrowed and must
  /// outlive the execution.
  JobExecution(const csp::Problem& prototype, const WalkerPoolOptions& options,
               core::StopToken external);

  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;

  /// Runs every walker, then applies the termination policy and hands over
  /// the report.  Call exactly once.
  [[nodiscard]] MultiWalkReport run();

 private:
  /// Thread count for run_tickets: the walker count clamped by max_threads
  /// and a hardware-derived ceiling under kThreads, else 1.
  [[nodiscard]] std::size_t preferred_threads() const noexcept;

  /// Body of walker `id`: checkpoint replay, start gate, then clone,
  /// stream(id), hooks, solve, crash containment.  Callable concurrently
  /// for distinct ids.
  void run_walker(std::size_t id);

  /// The token each walker polls: the external one, chained with the race's
  /// completion flag and carrying the preemption flag when set.
  [[nodiscard]] core::StopToken walker_token() const;

  /// The cause that keeps a not-yet-started walker from starting (one poll
  /// of a fresh walker_token()), latched by the first walker that observes
  /// one; kNone while the pool runs on.
  core::StopCause start_gate();

  /// The first-finisher CAS, shared by live runs and checkpoint replays of
  /// already-finished walkers.
  void note_completion(std::size_t id, const core::Result& result);

  /// Apply the termination policy and hand over the report, after every
  /// walker has returned: the one report path of every scheduling mode.
  [[nodiscard]] MultiWalkReport finalize();

  /// Hand the entries out as a PoolCheckpoint after a preempted run
  /// (finalize helper; moves the kRunning captures out of the entries).
  /// Leaves *options_.checkpoint_out empty when a started walker stopped
  /// interrupted without a capture (a failed capture, or walkers observed
  /// mixed external interruptions) or the checkpoint fails the check a
  /// resume makes (a torn capture): the report still says kPreempted, and
  /// the caller reruns from its last resume point.
  void assemble_checkpoint();

  const csp::Problem& prototype_;
  const WalkerPoolOptions& options_;
  const core::StopToken external_;
  const std::size_t k_;
  const core::AdaptiveSearch engine_;
  const util::RngStreamFactory streams_;
  CommChannels comm_;
  const bool threaded_;
  const bool race_;

  // The race state shared by racing walkers: the completion flag, the
  // winner slot and the time-to-solution stamp.
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> winner_{kNoWinner};
  std::atomic<std::uint64_t> solution_time_us_{0};
  // The start gate's latched cause (kNone until a stop source is seen).
  std::atomic<core::StopCause> gate_cause_{core::StopCause::kNone};

  // One entry per walker, seeded from the resume checkpoint (kPending on a
  // fresh run).  Each entry is written only by the thread running that
  // walker and read in finalize(), after every walker has been joined.
  std::vector<PoolCheckpoint::WalkerEntry> entries_;
  util::Stopwatch watch_;
};

}  // namespace cspls::parallel::detail
