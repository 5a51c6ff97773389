#include "api/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/stop_token.hpp"
#include "problems/spec.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cspls::api {

util::Json ServiceStats::to_json() const {
  util::Json json = util::Json::object();
  json.set("queued", static_cast<std::uint64_t>(std::accumulate(
                         queued.begin(), queued.end(), std::size_t{0})));
  json.set("running", static_cast<std::uint64_t>(running));
  json.set("submitted", submitted);
  json.set("completed", completed);
  json.set("cancelled", cancelled);
  json.set("preempted", preempted);
  json.set("failed", failed);
  json.set("retried", retried);
  json.set("degraded", degraded);
  json.set("thread_budget", static_cast<std::uint64_t>(thread_budget));
  json.set("free_threads", static_cast<std::uint64_t>(free_threads));
  return json;
}

namespace detail {

struct JobState {
  std::uint64_t id = 0;
  std::size_t lane = 0;
  /// What the next claim runs: the submitted request, or after a
  /// preemption the same request resuming from its checkpoint.  Written
  /// only by the worker holding the job, before it requeues the job.
  SolveRequest request;
  JobCallbacks callbacks;
  /// Back-reference so JobHandle::cancel works even after the service
  /// object is gone (the core outlives both).
  std::shared_ptr<ServiceCore> core;
  std::atomic<bool> cancel{false};
  /// Suspend-to-checkpoint request, observed by the engine's stop poll via
  /// SolveCallbacks::preempt.
  std::atomic<bool> preempt{false};
  bool queued = false;  ///< in a lane; guarded by core->m

  mutable std::mutex m;
  /// Signals the terminal status, and a cancel during a retry backoff.
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // guarded by m
  SolveReport report;                     // immutable once terminal
  std::string error;
};

using JobPtr = std::shared_ptr<JobState>;

/// Lock order everywhere: core.m before job.m, never the reverse.  Every
/// job is in exactly one place — being admitted, in a lane, running, or
/// between a preemption and its requeue — and whoever takes it out of that
/// place under core.m owns its next transition.
struct ServiceCore {
  std::mutex m;
  std::condition_variable cv;  ///< workers: a claimable job, or shutdown
  std::array<std::deque<JobPtr>, kNumLanes> lanes;
  /// Submissions past the depth check whose on_accepted has not returned;
  /// counted against the bound so concurrent submits cannot overshoot it.
  std::array<std::size_t, kNumLanes> admitting{};
  std::unordered_map<std::uint64_t, JobPtr> live;  ///< non-terminal jobs
  std::vector<JobPtr> running;                     ///< jobs holding a lease
  std::size_t free_threads = 0;
  std::size_t max_lane_depth = 0;
  std::uint64_t next_id = 1;
  bool shutdown = false;
  ServiceStats counters;  ///< the lifetime counters stats() reports
};

}  // namespace detail

namespace {

using detail::JobPtr;
using detail::JobState;
using detail::ServiceCore;

bool lane_full(const ServiceCore& core, std::size_t lane) {
  return core.max_lane_depth != 0 &&
         core.lanes[lane].size() + core.admitting[lane] >= core.max_lane_depth;
}

void set_status(JobState& job, JobStatus status) {
  {
    std::lock_guard<std::mutex> guard(job.m);
    if (is_terminal(job.status)) return;  // never un-finish a job
    job.status = status;
  }
  job.cv.notify_all();
}

/// Raise the cancel flag and wake a retry backoff waiting on it.
void raise_cancel(JobState& job) {
  job.cancel.store(true, std::memory_order_relaxed);
  { std::lock_guard<std::mutex> guard(job.m); }  // no lost wake-up
  job.cv.notify_all();
}

/// The one terminal transition; the caller holds no lock and owns the job.
void finish(JobState& job, JobStatus status, SolveReport report,
            std::string error) {
  if (report.problem.empty()) report.problem = job.request.problem;
  ServiceCore& core = *job.core;
  {
    std::lock_guard<std::mutex> lock(core.m);
    core.live.erase(job.id);
    if (status == JobStatus::kDone) {
      ++core.counters.completed;
    } else if (status == JobStatus::kCancelled) {
      ++core.counters.cancelled;
    } else {
      ++core.counters.failed;
    }
  }
  {
    std::lock_guard<std::mutex> guard(job.m);
    job.report = std::move(report);
    job.error = std::move(error);
    job.status = status;
  }
  job.cv.notify_all();
  if (job.callbacks.on_done) {
    job.callbacks.on_done(status, job.report, job.error);
  }
}

void finish_cancelled(JobState& job, SolveReport report = {}) {
  report.cancelled = true;
  report.preempted = false;
  finish(job, JobStatus::kCancelled, std::move(report), {});
}

/// Cancel a live job; `lock` holds core.m and is released on return.  A
/// queued job leaves its lane and finishes here; any other stops at its
/// next poll (or, between admission steps, before it is enqueued).
void cancel_live(std::unique_lock<std::mutex>& lock, const JobPtr& job) {
  ServiceCore& core = *job->core;
  raise_cancel(*job);
  if (!job->queued) return;
  auto& lane = core.lanes[job->lane];
  lane.erase(std::find(lane.begin(), lane.end(), job));
  job->queued = false;
  lock.unlock();
  finish_cancelled(*job);
}

/// Parallelism a request asks for: its walker count under kThreads (capped
/// by its own max_threads), one slot otherwise.
std::size_t desired_threads(const SolveRequest& request) {
  if (request.scheduling != parallel::Scheduling::kThreads) return 1;
  const std::size_t walkers = std::max<std::size_t>(1, request.walkers);
  return request.max_threads != 0 ? std::min(walkers, request.max_threads)
                                  : walkers;
}

/// A job just entered `lane`.  With no slot free, ask the weakest running
/// job of a weaker lane to suspend — at most one victim per arrival.
/// Caller holds core.m.
void preempt_for(ServiceCore& core, std::size_t lane) {
  if (core.free_threads > 0) return;
  JobState* victim = nullptr;
  for (const JobPtr& job : core.running) {
    if (job->lane <= lane || job->preempt.load(std::memory_order_relaxed)) {
      continue;
    }
    if (victim == nullptr || job->lane >= victim->lane) victim = job.get();
  }
  if (victim != nullptr) {
    victim->preempt.store(true, std::memory_order_relaxed);
  }
}

/// Supervises one attempt: fires `stalled` when `heartbeat` does not move
/// for `stall_ms` milliseconds.  The jthread destructor (stop + join) is
/// the disarm path, so the watchdog can never outlive its attempt.
std::jthread spawn_watchdog(std::uint64_t stall_ms,
                            const std::atomic<std::uint64_t>* heartbeat,
                            std::atomic<bool>* stalled) {
  return std::jthread([stall_ms, heartbeat, stalled](std::stop_token stop) {
    using Clock = std::chrono::steady_clock;
    // Poll in small chunks so disarming (and firing) stays prompt even
    // against multi-second budgets.
    const auto chunk = std::chrono::milliseconds(
        std::clamp<std::uint64_t>(stall_ms / 8, 1, 50));
    std::uint64_t last = heartbeat->load(std::memory_order_relaxed);
    Clock::time_point last_progress = Clock::now();
    while (!stop.stop_requested()) {
      std::this_thread::sleep_for(chunk);
      const std::uint64_t beats = heartbeat->load(std::memory_order_relaxed);
      if (beats != last) {
        last = beats;
        last_progress = Clock::now();
        continue;
      }
      // Compared in whole milliseconds, so a budget of any size saturates:
      // one the clock cannot reach never stalls.
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - last_progress);
      if (static_cast<std::uint64_t>(idle.count()) >= stall_ms) {
        stalled->store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
}

/// One attempt's verdict, inspected by the retry loop.
struct AttemptOutcome {
  SolveReport report;
  std::string error;   ///< non-empty when the dispatch path threw
  bool threw = false;  ///< the dispatch path threw (error holds the message)
  bool stalled = false;  ///< the watchdog cut this attempt short
  /// The PoolCheckpoint a preempted attempt surrendered (empty when the
  /// capture failed).
  std::optional<parallel::PoolCheckpoint> checkpoint;

  [[nodiscard]] bool all_failed() const noexcept {
    return !report.walkers.empty() &&
           report.failed_walkers == report.walkers.size();
  }
  /// A retryable attempt: crashed wholesale or stalled — never a run that
  /// merely failed to solve, and never one the caller cancelled.
  [[nodiscard]] bool bad() const noexcept {
    return threw || all_failed() || stalled;
  }
};

AttemptOutcome run_attempt(JobState& job, SolveRequest attempt_request,
                           std::size_t leased,
                           util::fault::Session& dispatch_faults) {
  AttemptOutcome outcome;
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<bool> watchdog_cancel{false};
  try {
    if (util::fault::probe(&dispatch_faults,
                           util::fault::Site::kServiceDispatch) ==
        util::fault::Action::kCorrupt) {
      throw std::runtime_error("injected fault: corrupt service_dispatch");
    }
    if (attempt_request.scheduling == parallel::Scheduling::kThreads) {
      // The lease caps this job's concurrency; walkers beyond it run in
      // waves (WalkerPoolOptions::max_threads semantics).
      attempt_request.max_threads = leased;
    }
    // The watchdog flag rides a chained slot: walkers it stops record
    // StopCause::kChained, so a watchdog cut is never misreported as a
    // caller cancellation (and survives the pool's first-finisher chain).
    const core::StopToken token =
        core::StopToken(&job.cancel).also_cancelled_by(&watchdog_cancel);
    SolveCallbacks callbacks;
    callbacks.heartbeat = &heartbeat;
    if (job.callbacks.on_sample && job.callbacks.sample_period != 0) {
      callbacks.sample_sink = job.callbacks.on_sample;
      callbacks.sample_period = job.callbacks.sample_period;
    }
    callbacks.preempt = &job.preempt;
    callbacks.checkpoint_out = &outcome.checkpoint;
    {
      std::jthread watchdog;
      if (attempt_request.watchdog_stall_ms != 0) {
        watchdog = spawn_watchdog(attempt_request.watchdog_stall_ms,
                                  &heartbeat, &watchdog_cancel);
      }
      outcome.report = Solver::solve(attempt_request, token, callbacks);
    }  // watchdog disarmed (stopped + joined) here, throw or return
  } catch (const std::exception& e) {
    outcome.threw = true;
    outcome.error = e.what();
  } catch (...) {
    outcome.threw = true;
    outcome.error = "unknown exception";
  }
  outcome.stalled = watchdog_cancel.load(std::memory_order_relaxed);
  return outcome;
}

/// Ceiling of one retry backoff: one day.  Saturating there keeps the
/// double-to-integer cast defined and steady_clock::now() + backoff in
/// range for any client-supplied base and multiplier.
constexpr std::uint64_t kMaxBackoffMs = 86'400'000;

/// Backoff in milliseconds before the retry following failing attempt
/// `attempt` (1-based).  `rng` is seeded from the job's master seed, so
/// jittered retry timing is reproducible.
std::uint64_t backoff_ms_for(const RetryPolicy& retry, std::uint32_t attempt,
                             util::Xoshiro256& rng) {
  const auto ceiling = static_cast<double>(kMaxBackoffMs);
  double ms = static_cast<double>(retry.base_backoff_ms);
  // Positive and below the ceiling only: a zero base stays zero even under
  // an infinite multiplier, and a saturated one stops growing.
  for (std::uint32_t i = 1; i < attempt && ms > 0.0 && ms < ceiling; ++i) {
    ms *= retry.multiplier;
  }
  ms *= 1.0 + retry.jitter * rng.uniform01();
  return ms < ceiling ? static_cast<std::uint64_t>(ms) : kMaxBackoffMs;
}

/// Sleep out a retry backoff; true when the job was cancelled meanwhile.
bool backoff_wait(JobState& job, std::uint64_t ms) {
  std::unique_lock<std::mutex> lock(job.m);
  return job.cv.wait_for(lock, std::chrono::milliseconds(ms), [&] {
    return job.cancel.load(std::memory_order_relaxed);
  });
}

/// How one claim of a job ended.
struct Verdict {
  JobStatus status = JobStatus::kFailed;
  SolveReport report;
  std::string error;
  /// Set when the claim was preempted: the request its next claim runs.
  std::optional<SolveRequest> resume;
};

Verdict run_claim(JobState& job, std::size_t leased) {
  // The whole claim is contained: nothing may escape a worker thread (an
  // escape would std::terminate the service).  Inner per-attempt
  // containment lives in run_attempt; this shell catches everything else —
  // a bad_alloc while copying the request.
  Verdict verdict;
  try {
    // One session across all attempts, counting `service_dispatch` probes:
    // a plan with at_count=n fires on the n-th attempt, which is what
    // makes retry-then-succeed trajectories scriptable.
    util::fault::Session dispatch_faults(
        util::fault::kCompiledIn ? &job.request.faults : nullptr,
        util::fault::kAnyWalker);
    const RetryPolicy& retry = job.request.retry;
    // Deterministic jitter: the stream is derived from the job's seed, not
    // from global entropy, so a fixed-seed retry trajectory is replayable.
    util::Xoshiro256 backoff_rng(job.request.seed ^ 0x5afe'b0ff'd1ce'5eedULL);

    SolveRequest attempt_request = job.request;
    bool degraded = false;
    bool cancelled_between_attempts = false;
    AttemptOutcome outcome;
    std::uint32_t attempts_run = 0;

    for (std::uint32_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
      set_status(job, degraded ? JobStatus::kDegraded : JobStatus::kRunning);
      outcome = run_attempt(job, attempt_request, leased, dispatch_faults);
      attempts_run = attempt;
      if (!outcome.bad() || outcome.report.cancelled) break;
      if (job.cancel.load(std::memory_order_relaxed)) {
        cancelled_between_attempts = true;
        break;
      }
      if (attempt == retry.max_attempts) break;  // attempts exhausted

      // Prepare the retry: degrade stalled jobs to half the walkers, and
      // reseed from the failed attempt's best configuration when it
      // produced one (all-failed attempts leave no checkpoint).
      {
        std::lock_guard<std::mutex> lock(job.core->m);
        ++job.core->counters.retried;
        if (outcome.stalled && !degraded) ++job.core->counters.degraded;
      }
      if (outcome.stalled) {
        degraded = true;
        attempt_request.walkers =
            std::max<std::size_t>(1, attempt_request.walkers / 2);
      }
      if (!outcome.report.solution.empty()) {
        attempt_request.warm_start = outcome.report.solution;
      }
      const std::uint64_t backoff =
          backoff_ms_for(retry, attempt, backoff_rng);
      if (backoff != 0) {
        set_status(job, JobStatus::kRetrying);
        if (backoff_wait(job, backoff)) {
          cancelled_between_attempts = true;
          break;
        }
      }
    }

    // Read the verdict before the move empties outcome.report.
    const bool last_attempt_all_failed = outcome.all_failed();
    SolveReport& report = verdict.report;
    report = std::move(outcome.report);
    report.attempts = attempts_run;
    report.degraded = degraded;
    if (cancelled_between_attempts) {
      report.cancelled = true;
      verdict.status = JobStatus::kCancelled;
    } else if (outcome.threw) {
      verdict.error = std::move(outcome.error);
    } else if (report.cancelled) {
      // Status mirrors what the run actually observed (report.cancelled),
      // not a re-read of the flag — a cancel landing after normal
      // completion must not produce a kCancelled status around a solved,
      // uncancelled report.
      verdict.status = JobStatus::kCancelled;
    } else if (report.preempted && !report.solved) {
      // Suspended for a stronger job: the next claim resumes from the
      // checkpoint or, when the capture failed, reruns this claim's request.
      SolveRequest next = outcome.checkpoint ? attempt_request : job.request;
      if (outcome.checkpoint) {
        next.warm_start.reset();
        next.resume_from = std::move(outcome.checkpoint);
      }
      verdict.resume = std::move(next);
    } else if (last_attempt_all_failed) {
      // Structured failure: the report (with each walker's error) stays
      // readable via JobHandle::report(); wait() rethrows this summary.
      verdict.error = "all " + std::to_string(report.walkers.size()) +
                      " walkers failed on every attempt (" +
                      std::to_string(report.attempts) + " of " +
                      std::to_string(retry.max_attempts) +
                      "); walker 0: " + report.walkers.front().error;
    } else {
      // Includes a final stalled attempt (the anytime contract applies) and
      // a run that solved while its preemption was in flight.
      report.preempted = false;
      verdict.status = JobStatus::kDone;
    }
  } catch (const std::exception& e) {
    verdict = Verdict{};
    verdict.error = e.what();
  } catch (...) {
    verdict = Verdict{};
    verdict.error = "unknown exception";
  }
  return verdict;
}

/// A resident worker: claim the front of the strongest non-empty lane
/// whenever a slot is free, run it, then finish or requeue it.
void work(ServiceCore& core) {
  std::unique_lock<std::mutex> lock(core.m);
  for (;;) {
    core.cv.wait(lock, [&] {
      return core.shutdown ||
             (core.free_threads > 0 &&
              std::any_of(core.lanes.begin(), core.lanes.end(),
                          [](const auto& lane) { return !lane.empty(); }));
    });
    if (core.shutdown) return;
    auto& lane = *std::find_if(core.lanes.begin(), core.lanes.end(),
                               [](const auto& l) { return !l.empty(); });
    const JobPtr job = lane.front();
    lane.pop_front();
    job->queued = false;
    const std::size_t lease =
        std::min(desired_threads(job->request), core.free_threads);
    core.free_threads -= lease;
    core.running.push_back(job);
    if (job->request.resume_from.has_value()) ++core.counters.resumed;
    lock.unlock();

    Verdict verdict = run_claim(*job, lease);

    lock.lock();
    core.free_threads += lease;
    std::erase(core.running, job);
    if (verdict.resume) ++core.counters.preempted;
    lock.unlock();
    core.cv.notify_all();

    if (verdict.resume) {
      // Fired before the job is claimable again, so the notice precedes
      // every sample of the resumed run.
      if (job->callbacks.on_preempted) job->callbacks.on_preempted();
      lock.lock();
      if (!core.shutdown && !job->cancel.load(std::memory_order_relaxed)) {
        job->request = std::move(*verdict.resume);
        job->preempt.store(false, std::memory_order_relaxed);
        job->queued = true;
        core.lanes[job->lane].push_front(job);
        set_status(*job, JobStatus::kQueued);
        continue;
      }
      // Cancelled (or shut down) while suspended: the checkpoint is moot.
      lock.unlock();
      finish_cancelled(*job, std::move(verdict.report));
    } else {
      finish(*job, verdict.status, std::move(verdict.report),
             std::move(verdict.error));
    }
    lock.lock();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

detail::JobState& JobHandle::state() const {
  if (state_ == nullptr) {
    throw std::logic_error("JobHandle: default-constructed (invalid) handle");
  }
  return *state_;
}

std::uint64_t JobHandle::id() const { return state().id; }

JobStatus JobHandle::status() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  return job.status;
}

const SolveReport& JobHandle::wait() const {
  detail::JobState& job = state();
  std::unique_lock<std::mutex> lock(job.m);
  job.cv.wait(lock, [&] { return is_terminal(job.status); });
  if (job.status == JobStatus::kFailed) {
    throw std::runtime_error("SolverService job " + std::to_string(job.id) +
                             " failed: " + job.error);
  }
  return job.report;
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  detail::JobState& job = state();
  std::unique_lock<std::mutex> lock(job.m);
  return job.cv.wait_for(lock, timeout,
                         [&] { return is_terminal(job.status); });
}

const SolveReport& JobHandle::report() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  if (!is_terminal(job.status)) {
    throw std::logic_error("JobHandle::report: job " + std::to_string(job.id) +
                           " is still " + std::string(name_of(job.status)));
  }
  return job.report;
}

std::string JobHandle::error() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  return job.error;
}

bool JobHandle::cancel() const {
  (void)state();
  std::unique_lock<std::mutex> lock(state_->core->m);
  if (!state_->core->live.contains(state_->id)) return false;
  cancel_live(lock, state_);
  return true;
}

// ---------------------------------------------------------------------------
// SolverService
// ---------------------------------------------------------------------------

SolverService::SolverService(Options options)
    : core_(std::make_shared<detail::ServiceCore>()) {
  budget_ = options.thread_budget != 0
                ? options.thread_budget
                : std::max(1u, std::thread::hardware_concurrency());
  core_->free_threads = budget_;
  core_->max_lane_depth = options.max_lane_depth;
  try {
    workers_.reserve(budget_);
    for (std::size_t i = 0; i < budget_; ++i) {
      workers_.emplace_back([core = core_.get()] { work(*core); });
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

SolverService::~SolverService() { shutdown(); }

void SolverService::shutdown() {
  std::vector<JobPtr> queued;
  std::vector<std::jthread> workers;
  {
    std::lock_guard<std::mutex> lock(core_->m);
    core_->shutdown = true;
    for (auto& lane : core_->lanes) {
      for (JobPtr& job : lane) {
        job->queued = false;
        queued.push_back(std::move(job));
      }
      lane.clear();
    }
    for (const JobPtr& job : core_->running) raise_cancel(*job);
    workers.swap(workers_);
  }
  core_->cv.notify_all();
  for (const JobPtr& job : queued) finish_cancelled(*job);
  // jthread destructors join every worker as `workers` goes out of scope;
  // a second call finds everything already drained.
}

JobHandle SolverService::submit(SolveRequest request, Priority priority,
                                JobCallbacks callbacks) {
  detail::ServiceCore& core = *core_;
  // Shutdown is checked *before* validation: "submit after shutdown" is
  // the caller's actual mistake, and reporting a parse/validation error
  // for a request a closed service would never run is misleading.
  const auto throw_if_shutdown = [&core] {
    if (core.shutdown) {
      throw std::runtime_error("SolverService: submit after shutdown");
    }
  };
  {
    std::lock_guard<std::mutex> lock(core.m);
    throw_if_shutdown();
  }

  // Validate the instance, the pool configuration and the retry policy now
  // so the caller gets the diagnostic at the submission site, not from a
  // failed job.
  (void)problems::parse_spec(request.problem);
  parallel::validate_options(request.to_pool_options());
  request.retry.validate();

  const auto lane = static_cast<std::size_t>(priority);
  auto job = std::make_shared<detail::JobState>();
  job->lane = lane;
  job->request = std::move(request);
  job->callbacks = std::move(callbacks);
  job->core = core_;
  {
    std::lock_guard<std::mutex> lock(core.m);
    throw_if_shutdown();  // closed while we were validating
    if (lane_full(core, lane)) {
      ++core.counters.rejected;
      throw OverloadedError(
          "lane \"" + std::string(name_of(priority)) +
          "\" is at its depth bound of " +
          std::to_string(core.max_lane_depth) + " queued jobs");
    }
    ++core.admitting[lane];
    job->id = core.next_id++;
    core.live.emplace(job->id, job);
    ++core.counters.submitted;
  }

  // Fired before the job is visible to any worker, with no lock held:
  // `accepted` always precedes the first sample.
  if (job->callbacks.on_accepted) job->callbacks.on_accepted(job->id);

  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(core.m);
    --core.admitting[lane];
    if (!core.shutdown && !job->cancel.load(std::memory_order_relaxed)) {
      job->queued = true;
      core.lanes[lane].push_back(job);
      preempt_for(core, lane);
      enqueued = true;
    }
  }
  if (enqueued) {
    core.cv.notify_one();
  } else {
    finish_cancelled(*job);  // accepted already went out; close it honestly
  }
  return JobHandle(std::move(job));
}

SolverService::CancelResult SolverService::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(core_->m);
  if (id == 0 || id >= core_->next_id) return CancelResult::kUnknown;
  const auto it = core_->live.find(id);
  if (it == core_->live.end()) return CancelResult::kAlreadyTerminal;
  const JobPtr job = it->second;
  cancel_live(lock, job);
  return CancelResult::kCancelled;
}

bool SolverService::reject_overloaded(Priority priority) {
  std::lock_guard<std::mutex> lock(core_->m);
  if (!lane_full(*core_, static_cast<std::size_t>(priority))) return false;
  ++core_->counters.rejected;
  return true;
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(core_->m);
  ServiceStats snapshot = core_->counters;
  for (std::size_t i = 0; i < kNumLanes; ++i) {
    snapshot.queued[i] = core_->lanes[i].size();
  }
  snapshot.running = core_->running.size();
  snapshot.thread_budget = budget_;
  snapshot.free_threads = core_->free_threads;
  return snapshot;
}

}  // namespace cspls::api
