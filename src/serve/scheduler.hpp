// The serving tier's admission scheduler: three priority lanes in front of
// two execution paths, chosen per job by its thread-lease estimate.
//
// Warm path (lease <= warm_lease_threshold): a fixed pool of warm worker
// threads claims *batches* of small jobs off the strongest non-empty lane.
// A claimed batch of two or more jobs runs as ONE fused launch
// (api::Solver::solve_fused over parallel::FusedRun): one resident team
// executes every member's walkers, one spawn/join per batch instead of one
// per job, with each member's fixed-seed report byte-identical to its solo
// run — a thousand one-walker solves cost `warm_workers` long-lived
// threads plus one team per batch, not a thousand service workers.
// Preemption stays cooperative give-back: the fused admission gate
// re-checks the stronger lanes just before each member's first walker
// runs, and withdraws still-unstarted members back to the front of their
// lane when one filled up.  Shutdown (or a client cancel) reaching a
// claimed-but-unstarted member withdraws it the same way and finalizes it
// with a terminal "cancelled" event — it never runs and never records a
// start.
//
// Service path (bigger leases): jobs flow through an api::SolverService —
// inheriting its thread budget, retry/backoff self-healing and watchdog —
// kept shallow (at most `service_inflight` submitted at a time) so lane
// order, not the service's FIFO, decides who runs next.  When a stronger
// lane has a job waiting, in-flight weaker jobs that are still *queued*
// inside the service are preempted: cancelled and requeued at the front of
// their lane, to be resubmitted after the stronger job — they still
// terminate with their real status once re-run.  When no queued victim
// exists and the service is at its in-flight cap, the weakest *running*
// job is suspended instead: the engine stops it at a safe point,
// surrenders a PoolCheckpoint, and the job returns to the front of its
// lane carrying the checkpoint (SolveRequest::resume_from) — its next
// claim resumes the walk exactly where it stopped, byte-identical to never
// having been interrupted.  A capture failure degrades to plain
// cancel-and-requeue (the job restarts from scratch, losing only work).
//
// Admission control: `max_lane_depth` bounds each priority lane; a submit
// to a full lane is rejected with the stable `overloaded` protocol error
// (HTTP 429) before `accepted` fires, so clients see backpressure instead
// of unbounded queueing.
//
// Streaming: a job submitted with `stream` pushes (walker, iteration, cost)
// samples through JobEvents::on_sample, filtered to strictly decreasing
// best cost (the anytime payload) and serialized so no sample follows the
// terminal report.  Event callbacks are never invoked while the scheduler
// lock is held, and `on_accepted` fires before the job becomes visible to
// any worker — `accepted` always precedes the first `sample` on the wire.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.hpp"
#include "serve/protocol.hpp"

namespace cspls::serve {

namespace detail {
struct ServeJob;
}  // namespace detail

struct SchedulerOptions {
  /// Warm worker threads (each runs one job at a time, in-thread).
  std::size_t warm_workers = 2;
  /// Jobs whose thread-lease estimate (walkers capped by max_threads;
  /// 1 for non-threaded scheduling) is <= this run on the warm path.
  std::size_t warm_lease_threshold = 1;
  /// Most jobs a warm worker claims per lane visit.
  std::size_t warm_batch_max = 8;
  /// Run claimed batches of >= 2 jobs as one fused launch (see header
  /// comment).  false = the legacy back-to-back per-job loop, kept as the
  /// unfused baseline for benchmarking.
  bool fuse_warm_batches = true;
  /// Resident team size for each warm worker's fused launches.  1
  /// (default) runs the batch inline on the claiming worker thread,
  /// preserving deterministic intra-batch start order; > 1 runs members
  /// concurrently on that many threads (start order becomes
  /// scheduling-dependent); 0 = auto, hardware threads / warm_workers
  /// (at least 1).
  std::size_t warm_fused_threads = 1;
  /// Most service-path jobs submitted into the SolverService at once; the
  /// rest wait in lanes where priority order (and preemption) applies.
  std::size_t service_inflight = 4;
  /// Admission control: most jobs queued per priority lane (warm + service
  /// lanes of one priority counted together, in-flight/claimed jobs not
  /// counted).  A submit to a full lane is rejected with the stable
  /// `overloaded` protocol error (HTTP 429) before `accepted` fires.
  /// 0 = unbounded (the default).
  std::size_t max_lane_depth = 0;
  /// Suspend a *running* weaker-lane job to a PoolCheckpoint when a
  /// stronger job is waiting, the service is at its in-flight cap and no
  /// still-queued weaker job could be preempted instead.  The suspended job
  /// returns to the front of its lane carrying the checkpoint and resumes
  /// exactly where it stopped on its next claim.  false falls back to
  /// queued-only preemption (the stronger job waits out the running walk).
  bool preempt_running = true;
  /// Sample period for streaming jobs that did not pick one.
  std::uint64_t default_sample_period = 256;
  /// Dispatcher poll period for reaping / preempting / submitting.
  std::chrono::milliseconds poll_period{2};
  /// The service path's knobs (thread budget, per-job cap).
  api::SolverService::Options service;
};

/// Per-job event sinks; all fired off the submitting thread (workers, the
/// dispatcher) except on_accepted, which fires synchronously inside
/// submit() — before the job is visible to any worker.  Must be
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

/// Point-in-time scheduler counters (the service path's own counters live
/// in api::ServiceStats, reported alongside).
struct SchedulerStats {
  std::array<std::size_t, kNumLanes> queued{};  ///< per lane, both paths
  std::size_t inflight = 0;     ///< submitted into the service, not reaped
  std::size_t warm_active = 0;  ///< claimed by warm workers, not finalized
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t preempted_queued = 0;   ///< still-queued service jobs requeued
  std::uint64_t preempted_running = 0;  ///< running jobs suspended to a
                                        ///< checkpoint and requeued
  std::uint64_t resumed = 0;            ///< checkpoint-carrying resubmissions
  std::uint64_t rejected_overload = 0;  ///< submits refused: lane at depth cap
  std::uint64_t givebacks = 0;      ///< warm jobs returned unstarted
  std::uint64_t batches = 0;        ///< warm batch claims
  std::uint64_t batched_jobs = 0;   ///< warm jobs claimed across batches
  std::uint64_t fused_batches = 0;  ///< warm batches run as one fused launch
  std::uint64_t fused_jobs = 0;     ///< jobs entering those fused launches

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] bool operator==(const SchedulerStats&) const = default;
};

class Scheduler {
 public:
  enum class CancelResult {
    kCancelled,        ///< the job existed and cancellation will take effect
    kAlreadyTerminal,  ///< known id, but the job already reported
    kUnknown,          ///< no such id was ever assigned
  };

  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validate and enqueue.  Throws std::invalid_argument on a malformed
  /// request (unknown problem, bad pool configuration), ProtocolError with
  /// code `overloaded` when the priority lane is at its depth bound
  /// (counted in SchedulerStats::rejected_overload; on_accepted has NOT
  /// fired), and std::runtime_error after shutdown().  Returns the job id;
  /// by return, events.on_accepted has already fired.
  std::uint64_t submit(SolveCommand command, JobEvents events);

  CancelResult cancel(std::uint64_t id);

  /// Admission pre-check for transports that must answer before streaming
  /// (HTTP's 429): true when `priority`'s lane is at its depth bound — the
  /// rejection is counted (SchedulerStats::rejected_overload), so a caller
  /// returning the error to the client must not also call submit().
  [[nodiscard]] bool reject_overloaded(Priority priority);

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] api::ServiceStats service_stats() const;

  /// Cancel everything outstanding (each job still gets its on_report,
  /// status "cancelled"), join workers and the dispatcher, shut the
  /// service down.  Idempotent; also run by the destructor.
  void shutdown();

  /// The ids of the most recent kStartedWindow jobs whose solve actually
  /// started (warm: the worker picked it up; service: first observed out of
  /// the service's queue), oldest first — the observable priority and
  /// preemption order, for tests.  Older starts are forgotten, so a
  /// long-lived server does not grow with every job it has run.
  [[nodiscard]] std::vector<std::uint64_t> started_order() const;
  static constexpr std::size_t kStartedWindow = 64;

 private:
  using JobPtr = std::shared_ptr<detail::ServeJob>;
  struct Finalization {
    JobPtr job;
    std::string status;
    api::SolveReport report;
    std::string error;
  };

  void warm_loop();
  void dispatch_loop();
  std::string run_warm(detail::ServeJob& job);
  void run_warm_fused(std::vector<JobPtr>& batch, std::size_t lane_idx);
  [[nodiscard]] bool warm_lanes_empty() const;  ///< caller holds m_
  void note_started_locked(std::uint64_t id);   ///< caller holds m_
  void finalize(const Finalization& f);

  SchedulerOptions options_;
  api::SolverService service_;

  mutable std::mutex m_;
  std::condition_variable warm_cv_;
  std::array<std::deque<JobPtr>, kNumLanes> warm_lanes_;
  std::array<std::deque<JobPtr>, kNumLanes> service_lanes_;
  std::unordered_map<std::uint64_t, JobPtr> jobs_;  ///< live (non-terminal)
  std::vector<JobPtr> inflight_;
  std::deque<std::uint64_t> started_order_;  ///< last kStartedWindow starts
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  bool joined_ = false;

  std::size_t warm_active_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t preempted_queued_ = 0;
  std::uint64_t preempted_running_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t givebacks_ = 0;
  /// Submissions past the depth check but not yet laned (submit drops m_
  /// to fire on_accepted); counted by the admission bound so concurrent
  /// submits cannot overshoot it.
  std::array<std::size_t, kNumLanes> admitting_{};
  std::uint64_t batches_ = 0;
  std::uint64_t batched_jobs_ = 0;
  std::uint64_t fused_batches_ = 0;
  std::uint64_t fused_jobs_ = 0;

  std::vector<std::thread> warm_threads_;
  std::thread dispatcher_;
};

}  // namespace cspls::serve
