// The serving engine: submit(SolveRequest) -> JobHandle, with three
// priority lanes, one walker-thread budget shared by every job, resident
// workers, running preemption and per-job callbacks — the serving story on
// top of the api::Solver façade.
//
// Lanes and claiming: a job waits in the lane of its Priority, strongest
// first and FIFO within a lane.  `thread_budget` resident worker threads,
// started with the service, claim the front of the strongest non-empty
// lane whenever a budget slot is free.  The claim leases min(the job's
// desired parallelism, free slots) and caps its WalkerPool to that lease
// (walkers beyond it run in waves, WalkerPoolOptions::max_threads
// semantics); sequential and emulated-race jobs lease one slot.  Every
// running job holds at least one slot, so running jobs never outnumber the
// workers, and submission only enqueues: no thread starts per job.
//
// Admission: `max_lane_depth` bounds each lane's queue (running jobs are
// not counted).  A submit to a full lane throws OverloadedError before
// on_accepted fires; the serving tier answers it with the `overloaded`
// protocol error (HTTP 429).
//
// Preemption: when a job enters its lane while no slot is free, the weakest
// running job of a weaker lane is asked to suspend.  It stops at its next
// safe point and surrenders a PoolCheckpoint; the worker releases its
// lease, fires on_preempted and requeues it at the front of its lane with
// the checkpoint as resume_from, so its next claim continues the walk
// byte-identically to never having been interrupted.  A failed capture
// requeues the job from its last resume point (it loses only work).
//
// Callbacks (JobCallbacks): on_accepted fires inside submit() once the job
// has its id and before any worker can claim it; on_sample fires from
// walker threads; on_preempted fires before the suspended job can be
// claimed again; on_done fires exactly once, after the status turned
// terminal.  None runs under the engine lock, so a callback may call back
// into the service.  Callbacks must be thread-safe and must not throw.
//
// Cancellation: cancel() flips the job's flag.  A queued job finishes
// immediately (kCancelled, report.cancelled set); a running job stops
// within one engine polling period and its report carries the best
// configuration reached so far (the anytime contract) with `cancelled`
// set.  Destroying the service cancels every outstanding job and joins the
// workers.
//
// Self-healing: an attempt that crashes wholesale (every walker failed, or
// the dispatch path threw) or stalls (no engine heartbeat for the
// request's watchdog_stall_ms) is retried under the request's RetryPolicy
// — exponential backoff with seeded jitter (kRetrying while backing off),
// walkers reseeded from the failed attempt's best configuration, and
// stalled jobs degraded to half the walkers (kDegraded) instead of
// hanging.  A job whose every attempt crashed resolves as kFailed with a
// structured report (JobHandle::report()); it never takes the process
// down.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "api/solve.hpp"
#include "api/solver.hpp"

namespace cspls::api {

/// Admission lanes, strongest first (the numeric value is the lane index).
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kNumLanes = 3;

/// "high" | "normal" | "low", the wire names.
[[nodiscard]] std::string_view name_of(Priority priority) noexcept;
[[nodiscard]] std::optional<Priority> priority_from_name(
    std::string_view name) noexcept;

/// Thrown by SolverService::submit when the job's lane is at its depth
/// bound; nothing was enqueued and no callback fired.
class OverloadedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Point-in-time view of a SolverService — what a transport's /stats
/// endpoint and a load generator need: the live queue state plus lifetime
/// counters (monotone since construction).
struct ServiceStats {
  std::array<std::size_t, kNumLanes> queued{};  ///< per lane, waiting
  std::size_t running = 0;       ///< jobs holding a thread lease
  std::uint64_t submitted = 0;   ///< jobs given an id by submit()
  std::uint64_t completed = 0;   ///< jobs finished kDone
  std::uint64_t cancelled = 0;   ///< jobs finished kCancelled
  std::uint64_t failed = 0;      ///< jobs finished kFailed
  std::uint64_t preempted = 0;   ///< running jobs suspended for a stronger one
  std::uint64_t resumed = 0;     ///< claims that carried a resume_from
  std::uint64_t rejected = 0;    ///< submits refused at a full lane
  std::uint64_t retried = 0;     ///< retry backoffs entered (kRetrying)
  std::uint64_t degraded = 0;    ///< claims the watchdog degraded at least once
  std::size_t thread_budget = 0;
  std::size_t free_threads = 0;

  /// {"queued":..,"running":..,...} — member order fixed, so the encoding
  /// is deterministic for a given snapshot.  "queued" sums the lanes;
  /// `resumed` and `rejected` appear in the serving tier's scheduler pane.
  [[nodiscard]] util::Json to_json() const;

  [[nodiscard]] bool operator==(const ServiceStats&) const = default;
};

enum class JobStatus {
  kQueued,     ///< waiting in its lane (also after a preemption)
  kRunning,    ///< leased threads, walkers executing
  kRetrying,   ///< a crashed/stalled attempt is backing off before a rerun
  kDegraded,   ///< running again after the watchdog shrank the walker pool
  kDone,       ///< finished on its own (solved or budget exhausted)
  kCancelled,  ///< stopped by cancel() or service shutdown
  kFailed,     ///< every attempt crashed wholesale (or an internal error);
               ///< JobHandle::wait() rethrows it, report() still returns
               ///< the structured last-attempt report
};

[[nodiscard]] constexpr bool is_terminal(JobStatus status) noexcept {
  return status == JobStatus::kDone || status == JobStatus::kCancelled ||
         status == JobStatus::kFailed;
}

[[nodiscard]] std::string_view name_of(JobStatus status);

/// Per-job subscription; every member is optional (see the header comment
/// for when each fires).
struct JobCallbacks {
  std::function<void(std::uint64_t id)> on_accepted;
  /// (walker_id, iteration, cost) at iteration 0 and every `sample_period`
  /// iterations of each walk (see SolveCallbacks::sample_sink).  Retried
  /// and resumed attempts stream too, so a consumer wanting monotone
  /// output must filter.  Zero period disables streaming.
  std::function<void(std::size_t, std::uint64_t, csp::Cost)> on_sample;
  std::uint64_t sample_period = 0;
  std::function<void()> on_preempted;
  /// `error` is non-empty only for kFailed.
  std::function<void(JobStatus status, const SolveReport& report,
                     std::string_view error)>
      on_done;
};

namespace detail {
struct JobState;
struct ServiceCore;
}  // namespace detail

/// Shared handle to a submitted job.  Copyable; outlives the service (a
/// handle held past the service's destruction sees the job cancelled).
/// All accessors on a default-constructed (invalid) handle throw
/// std::logic_error rather than dereferencing nothing.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] JobStatus status() const;

  /// Block until the job reaches a terminal status and return its report.
  /// Cancelled jobs return normally (report.cancelled set, best-effort
  /// contents); kFailed rethrows the job's error as std::runtime_error.
  const SolveReport& wait() const;

  /// Bounded wait; true when the job is terminal before the timeout.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

  /// The terminal report without wait()'s kFailed rethrow — the structured
  /// view of a failed job (e.g. an all-walkers-crashed report with every
  /// walker's error).  Throws std::logic_error while the job is still
  /// live; call after wait_for()/wait() observed a terminal status.
  [[nodiscard]] const SolveReport& report() const;

  /// The job's error message ("" unless kFailed).
  [[nodiscard]] std::string error() const;

  /// Request cancellation.  Returns true when the job was still live (the
  /// request will take effect), false when already terminal.
  bool cancel() const;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class SolverService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] detail::JobState& state() const;  ///< throws when !valid()

  std::shared_ptr<detail::JobState> state_;
};

class SolverService {
 public:
  struct Options {
    /// Walker-thread budget and resident worker count; 0 =
    /// std::thread::hardware_concurrency() (at least 1).
    std::size_t thread_budget = 0;
    /// Most jobs waiting per lane; 0 = unbounded.
    std::size_t max_lane_depth = 0;
  };

  enum class CancelResult {
    kCancelled,        ///< the job was live and cancellation will take effect
    kAlreadyTerminal,  ///< known id, but the job already finished
    kUnknown,          ///< no such id was ever assigned
  };

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Validate and enqueue `request` in the normal lane.
  [[nodiscard]] JobHandle submit(SolveRequest request) {
    return submit(std::move(request), Priority::kNormal, JobCallbacks{});
  }

  /// Validate and enqueue `request` in `priority`'s lane.  Throws
  /// std::invalid_argument on a malformed request (unknown problem,
  /// unusable size — the message lists the valid names — degenerate pool
  /// options or retry policy) and OverloadedError at a full lane; neither
  /// enqueues anything.  After shutdown() every submission — malformed or
  /// not — throws std::runtime_error ("submit after shutdown"): the
  /// shutdown check runs *before* validation, so a closed service never
  /// misreports itself as a parse error.  By return, on_accepted has fired.
  [[nodiscard]] JobHandle submit(SolveRequest request, Priority priority,
                                 JobCallbacks callbacks);

  /// Cancel by id (JobHandle::cancel for callers that kept only the id).
  CancelResult cancel(std::uint64_t id);

  /// Admission pre-check for transports that must answer before streaming
  /// (HTTP's 429): true when `priority`'s lane is at its depth bound.  The
  /// rejection is counted (ServiceStats::rejected), so a caller returning
  /// the error to its client must not also call submit().
  [[nodiscard]] bool reject_overloaded(Priority priority);

  /// Stop accepting submissions, cancel every queued and running job and
  /// join the workers (blocking).  Idempotent; also run by the destructor.
  /// Outstanding JobHandles stay valid and observe kCancelled.
  void shutdown();

  [[nodiscard]] std::size_t thread_budget() const noexcept { return budget_; }

  /// Jobs not yet terminal (queued + running).
  [[nodiscard]] std::size_t pending_jobs() const;

  /// Snapshot of the queue state and lifetime counters.  Cheap (one lock);
  /// safe to poll from a transport's /stats endpoint under load.
  [[nodiscard]] ServiceStats stats() const;

 private:
  std::size_t budget_ = 1;
  std::shared_ptr<detail::ServiceCore> core_;
  std::vector<std::jthread> workers_;  ///< guarded by core_->m
};

}  // namespace cspls::api
