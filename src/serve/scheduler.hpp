// The serving tier's protocol adapter over the one scheduling engine,
// api::SolverService.  The engine owns the priority lanes, the lane depth
// bound, the walker-thread budget, its resident workers and running
// preemption; the Scheduler adds what the wire protocol needs and nothing
// else — no thread and no queue of its own:
//
//   - job ids: the engine's, echoed in every event;
//   - the event sinks: engine callbacks mapped to JobEvents, and the
//     engine's OverloadedError mapped to the stable `overloaded` protocol
//     error (HTTP 429), raised before `accepted` fires;
//   - the sample filter: a job submitted with `stream` pushes (walker,
//     iteration, cost) samples filtered to strictly decreasing best cost
//     (the anytime payload) and serialized so no sample follows the
//     terminal report;
//   - the two stats panes: `scheduler` (per-lane queue depths and the
//     protocol's counters) and `service` (the engine's own view).
//
// Event callbacks are never invoked while the engine lock is held, and
// `on_accepted` fires before the job can be claimed — `accepted` always
// precedes the first `sample` on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "api/service.hpp"
#include "serve/protocol.hpp"

namespace cspls::serve {

struct SchedulerOptions {
  /// The engine's walker-thread budget (= resident workers) and lane depth
  /// bound (0 = unbounded).
  api::SolverService::Options service;
  /// Sample period for streaming jobs that did not pick one.
  std::uint64_t default_sample_period = 256;
};

/// Per-job event sinks; all fired off the submitting thread (workers,
/// walker threads, a cancelling thread) except on_accepted, which fires
/// synchronously inside submit() — before the job can be claimed.  Must be
/// thread-safe; must stay valid until on_report has fired.
struct JobEvents {
  std::function<void(std::uint64_t id)> on_accepted;
  /// Strictly decreasing best-cost samples; never fired after on_report.
  std::function<void(std::uint64_t id, std::size_t walker,
                     std::uint64_t iteration, csp::Cost cost)>
      on_sample;
  /// A *running* job was suspended to a checkpoint and requeued; it is
  /// still live and resumes from where it stopped.  May fire several times
  /// per job; never after on_report.
  std::function<void(std::uint64_t id)> on_preempted;
  /// Exactly once per job; status is "done" | "cancelled" | "failed"
  /// (error is non-empty only for "failed").
  std::function<void(std::uint64_t id, std::string_view status,
                     const api::SolveReport& report, std::string_view error)>
      on_report;
};

/// The `scheduler` stats pane, projected from the engine's ServiceStats.
struct SchedulerStats {
  std::array<std::size_t, kNumLanes> queued{};  ///< per lane
  std::size_t inflight = 0;  ///< running jobs
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t preempted_running = 0;  ///< running jobs suspended to a
                                        ///< checkpoint and requeued
  std::uint64_t resumed = 0;            ///< claims carrying a checkpoint
  std::uint64_t rejected_overload = 0;  ///< submits refused: lane at depth cap
  // Always 0, kept for the benchmark: perfbench reads these members, and
  // the warm pool, its batches, fusion and queued preemption that counted
  // them are gone.
  std::size_t warm_active = 0;
  std::uint64_t preempted_queued = 0;
  std::uint64_t givebacks = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_jobs = 0;
  std::uint64_t fused_batches = 0;
  std::uint64_t fused_jobs = 0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] bool operator==(const SchedulerStats&) const = default;
};

class Scheduler {
 public:
  using CancelResult = api::SolverService::CancelResult;

  explicit Scheduler(SchedulerOptions options = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validate and enqueue.  Throws std::invalid_argument on a malformed
  /// request (unknown problem, bad pool configuration or retry policy),
  /// ProtocolError with code `overloaded` when the priority lane is at its
  /// depth bound (counted in SchedulerStats::rejected_overload; on_accepted
  /// has NOT fired), and std::runtime_error after shutdown().  Returns the
  /// job id; by return, events.on_accepted has already fired.
  std::uint64_t submit(SolveCommand command, JobEvents events);

  CancelResult cancel(std::uint64_t id) { return service_.cancel(id); }

  /// Admission pre-check for transports that must answer before streaming
  /// (HTTP's 429); see api::SolverService::reject_overloaded.
  [[nodiscard]] bool reject_overloaded(Priority priority) {
    return service_.reject_overloaded(priority);
  }

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] api::ServiceStats service_stats() const {
    return service_.stats();
  }

  /// Cancel everything outstanding (each job still gets its on_report,
  /// status "cancelled") and join the engine's workers.  Idempotent; also
  /// run by the destructor.
  void shutdown() { service_.shutdown(); }

 private:
  std::uint64_t default_sample_period_;
  api::SolverService service_;
};

}  // namespace cspls::serve
