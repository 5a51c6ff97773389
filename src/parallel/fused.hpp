// FusedRun — one WalkerPool-style launch for many small solves.
//
// The paper's multi-walk result makes small instances embarrassingly
// parallel, but a serving tier that pays one full thread spawn/join per tiny
// job is dominated by launch overhead, not search.  FusedRun amortizes that
// fixed cost: N heterogeneous (Problem prototype, options, StopToken) jobs
// execute on ONE resident thread team — a single spawn/join per batch —
// with work-stealing over a shared task queue (an atomic ticket dispenser,
// exactly the solo pool's wave scheduler widened across jobs).
//
// Contract:
//   * Byte-identity.  Each member runs on its own detail::JobExecution, so
//     every walker still gets RNG stream `walker_id` of the member's own
//     master seed and a clone of the member's prototype.  A fused member's
//     MultiWalkReport is byte-for-byte its solo WalkerPool::run report
//     (timing fields excepted) — fused runs stay valid measurement inputs.
//     Ordered modes (kSequential / kEmulatedRace / collapsed kThreads) run
//     as one task preserving strict walker order, so publish/adopt
//     sequences under communication are untouched; genuinely threaded
//     members fan out one task per walker (any interleaving is a valid
//     schedule of the solo threaded pool).
//   * Independent completion.  The worker that finishes a member's last
//     task finalizes it and calls `sink(member, report)` immediately —
//     a finished job's report is delivered while siblings keep running.
//     Sinks for different members may fire concurrently; the callback must
//     be thread-safe.
//   * Late withdrawal.  `FusedOptions::admit` is consulted exactly once per
//     member, right before its first walker would run.  Returning false
//     withdraws the member: no walker runs, no sink fires, and the index is
//     returned from run(), so a caller can hand unstarted members back to
//     wherever it claimed them from.  (A member
//     whose StopToken is already cancelled is admitted and reports
//     interrupted-kCancel through the normal path: it was *started* and
//     owes its caller a report.)
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/stop_token.hpp"
#include "parallel/walker_pool.hpp"

namespace cspls::parallel {

/// One member of a fused batch.  `prototype` is borrowed and must outlive
/// the run; `options` is this job's complete solo configuration (seed,
/// walker count, scheduling, communication, faults, sinks...).
struct FusedJob {
  const csp::Problem* prototype = nullptr;
  WalkerPoolOptions options;
  core::StopToken stop;
};

struct FusedOptions {
  /// Resident team size (0 = hardware concurrency).  1 runs the whole batch
  /// inline on the calling thread — still one launch, zero spawns.
  std::size_t num_threads = 0;

  /// Admission gate, consulted once per member just before its first walker
  /// runs (from a team thread; must be thread-safe).  Return false to
  /// withdraw the member — it never starts and produces no report.  Null
  /// admits everything.
  std::function<bool(std::size_t member)> admit;
};

/// Per-member completion callback: (member index, final report).  Called
/// exactly once per admitted member, from the team thread that finished it,
/// while sibling members may still be running.
using FusedSink = std::function<void(std::size_t, MultiWalkReport)>;

/// The fused batch executor.  run() validates every member up front
/// (throwing std::invalid_argument before any work on a degenerate
/// configuration), executes the batch on one resident team, and blocks
/// until every admitted member has finished and its sink returned.  Returns
/// the indices of withdrawn members, in ascending order.
class FusedRun {
 public:
  explicit FusedRun(FusedOptions options = {}) noexcept
      : options_(std::move(options)) {}

  [[nodiscard]] const FusedOptions& options() const noexcept {
    return options_;
  }

  std::vector<std::size_t> run(std::span<const FusedJob> jobs,
                               const FusedSink& sink) const;

 private:
  FusedOptions options_;
};

}  // namespace cspls::parallel
