#include "serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/solver.hpp"
#include "core/stop_token.hpp"
#include "problems/spec.hpp"
#include "util/fault.hpp"

namespace cspls::serve {

namespace detail {

/// One admitted job, shared between the lanes, the workers/dispatcher and
/// any cancel() caller.  Queue membership, phase and the service handle
/// are guarded by the scheduler mutex; the sample filter has its own lock
/// because walker threads hit it while the scheduler lock is busy.
struct ServeJob {
  std::uint64_t id = 0;
  SolveCommand command;
  JobEvents events;
  bool warm_path = false;

  std::atomic<bool> cancel{false};

  // Guarded by Scheduler::m_.
  api::JobHandle handle;         ///< service path, once submitted
  bool in_service = false;
  bool preempt_pending = false;  ///< cancelled to make room, requeue on reap
  bool started_recorded = false;

  // Sample/report serialization: on_sample fires under this lock so best
  // cost is strictly decreasing on the wire and nothing follows on_report.
  std::mutex sample_m;
  csp::Cost best_seen = csp::kInfiniteCost;
  bool reported = false;

  void offer_sample(std::size_t walker, std::uint64_t iteration,
                    csp::Cost cost) {
    std::lock_guard lock(sample_m);
    if (reported || cost >= best_seen) return;
    best_seen = cost;
    if (events.on_sample) events.on_sample(id, walker, iteration, cost);
  }

  void emit_report(std::string_view status, const api::SolveReport& report,
                   std::string_view error) {
    std::lock_guard lock(sample_m);
    if (reported) return;
    reported = true;
    if (events.on_report) events.on_report(id, status, report, error);
  }

  /// Running-preemption notice: the job is suspended and requeued, still
  /// live.  Shares the sample lock so it can never follow the report.
  void emit_preempted() {
    std::lock_guard lock(sample_m);
    if (reported) return;
    if (events.on_preempted) events.on_preempted(id);
  }
};

}  // namespace detail

namespace {

constexpr std::string_view kDone = "done";
constexpr std::string_view kCancelled = "cancelled";
constexpr std::string_view kFailed = "failed";

std::size_t lane_of(const detail::ServeJob& job) {
  return static_cast<std::size_t>(job.command.priority);
}

/// Walker threads the job would lease — the service's accounting, mirrored
/// so path selection matches what the budget would actually see.
std::size_t lease_estimate(const api::SolveRequest& request) {
  if (request.scheduling != parallel::Scheduling::kThreads) return 1;
  std::size_t want = std::max<std::size_t>(1, request.walkers);
  if (request.max_threads != 0) want = std::min(want, request.max_threads);
  return want;
}

api::SolveReport cancelled_report(const detail::ServeJob& job) {
  api::SolveReport report;
  report.problem = job.command.request.problem;
  report.cancelled = true;
  return report;
}

std::string_view status_of(api::JobStatus status) {
  switch (status) {
    case api::JobStatus::kDone:
      return kDone;
    case api::JobStatus::kCancelled:
      return kCancelled;
    default:
      return kFailed;
  }
}

}  // namespace

util::Json SchedulerStats::to_json() const {
  util::Json json = util::Json::object();
  json.set("queued_high", static_cast<std::uint64_t>(queued[0]))
      .set("queued_normal", static_cast<std::uint64_t>(queued[1]))
      .set("queued_low", static_cast<std::uint64_t>(queued[2]))
      .set("inflight", static_cast<std::uint64_t>(inflight))
      .set("warm_active", static_cast<std::uint64_t>(warm_active))
      .set("submitted", submitted)
      .set("completed", completed)
      .set("cancelled", cancelled)
      .set("failed", failed)
      .set("preempted_queued", preempted_queued)
      .set("preempted_running", preempted_running)
      .set("resumed", resumed)
      .set("rejected_overload", rejected_overload)
      .set("givebacks", givebacks)
      .set("batches", batches)
      .set("batched_jobs", batched_jobs)
      .set("fused_batches", fused_batches)
      .set("fused_jobs", fused_jobs);
  return json;
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  if (options_.warm_workers == 0) options_.warm_workers = 1;
  if (options_.warm_batch_max == 0) options_.warm_batch_max = 1;
  if (options_.service_inflight == 0) options_.service_inflight = 1;
  warm_threads_.reserve(options_.warm_workers);
  for (std::size_t i = 0; i < options_.warm_workers; ++i) {
    warm_threads_.emplace_back([this] { warm_loop(); });
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Scheduler::~Scheduler() { shutdown(); }

std::uint64_t Scheduler::submit(SolveCommand command, JobEvents events) {
  // Same submission-site validation as the service: the caller gets the
  // diagnostic now, not a failed job later.
  (void)problems::parse_spec(command.request.problem);
  parallel::validate_options(command.request.to_pool_options());

  auto job = std::make_shared<detail::ServeJob>();
  job->command = std::move(command);
  if (job->command.sample_period == 0) {
    job->command.sample_period = options_.default_sample_period;
  }
  job->events = std::move(events);
  job->warm_path =
      lease_estimate(job->command.request) <= options_.warm_lease_threshold;
  const std::size_t lane_idx = lane_of(*job);
  {
    std::lock_guard lock(m_);
    if (stopping_) {
      throw std::runtime_error("serve::Scheduler: submit after shutdown");
    }
    // Admission control, before `accepted` can fire: a full lane rejects
    // with the stable `overloaded` code.  The in-admission count holds the
    // slot across the unlock below, so concurrent submits cannot overshoot
    // the bound.
    if (options_.max_lane_depth != 0 &&
        warm_lanes_[lane_idx].size() + service_lanes_[lane_idx].size() +
                admitting_[lane_idx] >=
            options_.max_lane_depth) {
      ++rejected_overload_;
      throw ProtocolError(
          kErrOverloaded,
          "lane \"" + std::string(name_of(job->command.priority)) +
              "\" is at its depth bound of " +
              std::to_string(options_.max_lane_depth) + " queued jobs");
    }
    ++admitting_[lane_idx];
    job->id = next_id_++;
  }

  // Fired before the job is visible to any worker, with no lock held:
  // `accepted` always precedes the first `sample`.
  if (job->events.on_accepted) job->events.on_accepted(job->id);

  bool raced_shutdown = false;
  {
    std::lock_guard lock(m_);
    --admitting_[lane_idx];
    if (stopping_) {
      raced_shutdown = true;
    } else {
      jobs_.emplace(job->id, job);
      auto& lanes = job->warm_path ? warm_lanes_ : service_lanes_;
      lanes[lane_idx].push_back(job);
      ++submitted_;
    }
  }
  if (raced_shutdown) {
    // Accepted already went out; close the job's stream honestly.
    job->emit_report(kCancelled, cancelled_report(*job), {});
    return job->id;
  }
  if (job->warm_path) warm_cv_.notify_one();
  return job->id;
}

Scheduler::CancelResult Scheduler::cancel(std::uint64_t id) {
  JobPtr dequeued;
  CancelResult result;
  {
    std::lock_guard lock(m_);
    if (id == 0 || id >= next_id_) return CancelResult::kUnknown;
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return CancelResult::kAlreadyTerminal;
    const JobPtr job = it->second;
    job->cancel.store(true, std::memory_order_relaxed);
    if (job->in_service) {
      // A client cancel outranks a pending preemption requeue.
      job->preempt_pending = false;
      (void)job->handle.cancel();
    } else {
      auto& lanes = job->warm_path ? warm_lanes_ : service_lanes_;
      auto& lane = lanes[lane_of(*job)];
      const auto pos = std::find(lane.begin(), lane.end(), job);
      if (pos != lane.end()) {
        // Still queued here: finalize directly, nobody else owns it.
        lane.erase(pos);
        jobs_.erase(it);
        ++cancelled_;
        dequeued = job;
      }
      // Otherwise a warm worker holds it; the flag stops the solve and the
      // worker finalizes with status "cancelled".
    }
    result = CancelResult::kCancelled;
  }
  if (dequeued) dequeued->emit_report(kCancelled, cancelled_report(*dequeued), {});
  return result;
}

bool Scheduler::reject_overloaded(Priority priority) {
  const auto lane_idx = static_cast<std::size_t>(priority);
  std::lock_guard lock(m_);
  if (options_.max_lane_depth == 0 ||
      warm_lanes_[lane_idx].size() + service_lanes_[lane_idx].size() +
              admitting_[lane_idx] <
          options_.max_lane_depth) {
    return false;
  }
  ++rejected_overload_;
  return true;
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard lock(m_);
  SchedulerStats stats;
  for (std::size_t i = 0; i < kNumLanes; ++i) {
    stats.queued[i] = warm_lanes_[i].size() + service_lanes_[i].size();
  }
  stats.inflight = inflight_.size();
  stats.warm_active = warm_active_;
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.cancelled = cancelled_;
  stats.failed = failed_;
  stats.preempted_queued = preempted_queued_;
  stats.preempted_running = preempted_running_;
  stats.resumed = resumed_;
  stats.rejected_overload = rejected_overload_;
  stats.givebacks = givebacks_;
  stats.batches = batches_;
  stats.batched_jobs = batched_jobs_;
  stats.fused_batches = fused_batches_;
  stats.fused_jobs = fused_jobs_;
  return stats;
}

api::ServiceStats Scheduler::service_stats() const { return service_.stats(); }

std::vector<std::uint64_t> Scheduler::started_order() const {
  std::lock_guard lock(m_);
  return {started_order_.begin(), started_order_.end()};
}

void Scheduler::note_started_locked(std::uint64_t id) {
  started_order_.push_back(id);
  if (started_order_.size() > kStartedWindow) started_order_.pop_front();
}

bool Scheduler::warm_lanes_empty() const {
  for (const auto& lane : warm_lanes_) {
    if (!lane.empty()) return false;
  }
  return true;
}

void Scheduler::finalize(const Finalization& f) {
  f.job->emit_report(f.status, f.report, f.error);
}

std::string Scheduler::run_warm(detail::ServeJob& job) {
  api::SolveReport report;
  std::string status{kDone};
  std::string error;
  try {
    // The warm path shares the service path's dispatch failure model: one
    // `service_dispatch` probe per job, so the same fault plans script
    // crashes on either path.  No retry here — small jobs rerun cheaply
    // from the client; self-healing is the service path's job.
    const util::fault::Schedule schedule =
        util::fault::kCompiledIn
            ? util::fault::Schedule::with_env(job.command.request.faults)
            : util::fault::Schedule{};
    util::fault::Session dispatch_faults(&schedule, util::fault::kAnyWalker);
    if (util::fault::probe(&dispatch_faults,
                           util::fault::Site::kServiceDispatch) ==
        util::fault::Action::kCorrupt) {
      throw std::runtime_error("injected fault: corrupt service_dispatch");
    }

    const core::StopToken token(&job.cancel);
    api::SolveCallbacks callbacks;
    if (job.command.stream && job.command.sample_period != 0) {
      callbacks.sample_sink = [&job](std::size_t walker,
                                     std::uint64_t iteration, csp::Cost cost) {
        job.offer_sample(walker, iteration, cost);
      };
      callbacks.sample_period = job.command.sample_period;
    }
    report = api::Solver::solve(job.command.request, token, callbacks);
    if (report.cancelled) status = kCancelled;
  } catch (const std::exception& ex) {
    status = kFailed;
    error = ex.what();
    report = api::SolveReport{};
    report.problem = job.command.request.problem;
  }
  job.emit_report(status, report, error);
  return status;
}

/// Run a claimed warm batch as ONE fused launch (api::Solver::solve_fused
/// over parallel::FusedRun) instead of back-to-back solo launches.  The
/// fused admission gate reproduces the legacy loop's per-job checks under
/// m_, just before each member's first walker runs: shutdown or a client
/// cancel withdraws the member for a terminal "cancelled" report without
/// running it, a stronger non-empty lane withdraws it for give-back, and
/// an admitted member records its start.  Completions are per member and
/// independent — a finished member reports while siblings still run.
void Scheduler::run_warm_fused(std::vector<JobPtr>& batch,
                               std::size_t lane_idx) {
  enum class Withdraw { kNone, kCancelled, kGiveBack };

  // Per-member dispatch-fault probe, the same failure model as run_warm: a
  // member whose probe fires finalizes "failed" right here and never joins
  // the launch; siblings are unaffected.
  std::vector<JobPtr> members;
  std::vector<api::Solver::FusedSolveJob> fused;
  members.reserve(batch.size());
  fused.reserve(batch.size());
  for (const JobPtr& job : batch) {
    std::string probe_error;
    try {
      const util::fault::Schedule schedule =
          util::fault::kCompiledIn
              ? util::fault::Schedule::with_env(job->command.request.faults)
              : util::fault::Schedule{};
      util::fault::Session dispatch_faults(&schedule,
                                           util::fault::kAnyWalker);
      if (util::fault::probe(&dispatch_faults,
                             util::fault::Site::kServiceDispatch) ==
          util::fault::Action::kCorrupt) {
        throw std::runtime_error("injected fault: corrupt service_dispatch");
      }
    } catch (const std::exception& ex) {
      probe_error = ex.what();
      if (probe_error.empty()) probe_error = "dispatch probe failed";
    }
    if (!probe_error.empty()) {
      api::SolveReport report;
      report.problem = job->command.request.problem;
      job->emit_report(kFailed, report, probe_error);
      std::lock_guard lock(m_);
      jobs_.erase(job->id);
      --warm_active_;
      ++failed_;
      continue;
    }

    api::Solver::FusedSolveJob member;
    member.request = job->command.request;
    member.token = core::StopToken(&job->cancel);
    if (job->command.stream && job->command.sample_period != 0) {
      const JobPtr sink = job;
      member.callbacks.sample_sink = [sink](std::size_t walker,
                                            std::uint64_t iteration,
                                            csp::Cost cost) {
        sink->offer_sample(walker, iteration, cost);
      };
      member.callbacks.sample_period = job->command.sample_period;
    }
    members.push_back(job);
    fused.push_back(std::move(member));
  }
  if (members.empty()) return;

  std::vector<Withdraw> withdraw(members.size(), Withdraw::kNone);

  api::Solver::FusedSolveOptions options;
  options.num_threads =
      options_.warm_fused_threads != 0
          ? options_.warm_fused_threads
          : std::max<std::size_t>(
                1, std::thread::hardware_concurrency() /
                       std::max<std::size_t>(1, options_.warm_workers));
  options.admit = [&](std::size_t index) {
    std::lock_guard lock(m_);
    const JobPtr& job = members[index];
    if (stopping_ || job->cancel.load(std::memory_order_relaxed)) {
      withdraw[index] = Withdraw::kCancelled;
      return false;
    }
    for (std::size_t stronger = 0; stronger < lane_idx; ++stronger) {
      if (!warm_lanes_[stronger].empty()) {
        withdraw[index] = Withdraw::kGiveBack;
        return false;
      }
    }
    if (!job->started_recorded) {
      job->started_recorded = true;
      note_started_locked(job->id);
    }
    return true;
  };

  {
    std::lock_guard lock(m_);
    ++fused_batches_;
    fused_jobs_ += members.size();
  }

  try {
    (void)api::Solver::solve_fused(
        fused, options, [&](std::size_t index, api::SolveReport report) {
          const JobPtr& job = members[index];
          const std::string_view status =
              report.cancelled ? kCancelled : kDone;
          job->emit_report(status, report, {});
          std::lock_guard lock(m_);
          jobs_.erase(job->id);
          --warm_active_;
          if (report.cancelled) {
            ++cancelled_;
          } else {
            ++completed_;
          }
        });
  } catch (const std::exception& ex) {
    // The launch itself failed.  Members were validated at submission, so
    // this is exceptional — fail every member the sink never reached
    // (withdrawn ones are finalized below with their real disposition).
    std::vector<JobPtr> broken;
    {
      std::lock_guard lock(m_);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (withdraw[i] != Withdraw::kNone) continue;
        if (jobs_.erase(members[i]->id) == 0) continue;  // sink already ran
        --warm_active_;
        ++failed_;
        broken.push_back(members[i]);
      }
    }
    for (const JobPtr& job : broken) {
      api::SolveReport report;
      report.problem = job->command.request.problem;
      job->emit_report(kFailed, report, ex.what());
    }
  }

  // Withdrawn members: give-backs return to the front of their lane in
  // FIFO order for a fresh claim after the stronger work; shutdown/cancel
  // withdrawals finalize with a terminal cancel event — they never ran.
  std::vector<JobPtr> requeue;
  std::vector<JobPtr> cut;
  {
    std::lock_guard lock(m_);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (withdraw[i] == Withdraw::kGiveBack) {
        requeue.push_back(members[i]);
      } else if (withdraw[i] == Withdraw::kCancelled) {
        cut.push_back(members[i]);
      }
    }
    for (auto rit = requeue.rbegin(); rit != requeue.rend(); ++rit) {
      warm_lanes_[lane_idx].push_front(*rit);
    }
    givebacks_ += requeue.size();
    warm_active_ -= requeue.size();
    for (const JobPtr& job : cut) {
      jobs_.erase(job->id);
      --warm_active_;
      ++cancelled_;
    }
    if (!requeue.empty()) warm_cv_.notify_one();
  }
  for (const JobPtr& job : cut) {
    job->emit_report(kCancelled, cancelled_report(*job), {});
  }
}

void Scheduler::warm_loop() {
  std::vector<JobPtr> batch;
  for (;;) {
    std::size_t lane_idx = 0;
    {
      std::unique_lock lock(m_);
      warm_cv_.wait(lock, [this] { return stopping_ || !warm_lanes_empty(); });
      if (stopping_ && warm_lanes_empty()) return;
      while (warm_lanes_[lane_idx].empty()) ++lane_idx;
      auto& lane = warm_lanes_[lane_idx];
      const std::size_t take = std::min(options_.warm_batch_max, lane.size());
      batch.assign(lane.begin(), lane.begin() + static_cast<std::ptrdiff_t>(take));
      lane.erase(lane.begin(), lane.begin() + static_cast<std::ptrdiff_t>(take));
      warm_active_ += take;
      ++batches_;
      batched_jobs_ += take;
    }

    if (options_.fuse_warm_batches && batch.size() >= 2) {
      run_warm_fused(batch, lane_idx);
      batch.clear();
      continue;
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      bool gave_back = false;
      JobPtr cut;  ///< claimed but cancelled/shut down before starting
      {
        std::unique_lock lock(m_);
        // Give-back preemption: a stronger lane filled while this batch
        // was in hand — return the unstarted tail and re-claim from the
        // top.  Skipped during shutdown (everything is cancelled anyway).
        if (!stopping_) {
          for (std::size_t stronger = 0; stronger < lane_idx; ++stronger) {
            if (!warm_lanes_[stronger].empty()) {
              for (std::size_t j = batch.size(); j > i; --j) {
                warm_lanes_[lane_idx].push_front(batch[j - 1]);
              }
              const std::size_t returned = batch.size() - i;
              givebacks_ += returned;
              warm_active_ -= returned;
              batch.resize(i);
              gave_back = true;
              warm_cv_.notify_one();
              break;
            }
          }
        }
        if (!gave_back) {
          if (stopping_ ||
              batch[i]->cancel.load(std::memory_order_relaxed)) {
            // Shutdown (or a client cancel) caught this claim before it
            // started: finalize with a terminal cancel event without
            // paying the solve's start-up.  It never ran, so it records
            // no start.
            jobs_.erase(batch[i]->id);
            --warm_active_;
            ++cancelled_;
            cut = batch[i];
          } else if (!batch[i]->started_recorded) {
            batch[i]->started_recorded = true;
            note_started_locked(batch[i]->id);
          }
        }
      }
      if (gave_back) break;
      if (cut) {
        cut->emit_report(kCancelled, cancelled_report(*cut), {});
        continue;
      }

      const std::string status = run_warm(*batch[i]);

      {
        std::lock_guard lock(m_);
        jobs_.erase(batch[i]->id);
        --warm_active_;
        if (status == kDone) {
          ++completed_;
        } else if (status == kCancelled) {
          ++cancelled_;
        } else {
          ++failed_;
        }
      }
    }
    batch.clear();
  }
}

void Scheduler::dispatch_loop() {
  for (;;) {
    std::vector<Finalization> done;
    std::vector<JobPtr> suspended;  ///< running-preempted: notify off-lock
    bool exit_after = false;
    {
      std::unique_lock lock(m_);

      // Reap: probe every in-flight handle without blocking.
      std::vector<JobPtr> requeue;  ///< preempted, in original FIFO order
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        const JobPtr& job = *it;
        // Record a start only on an observed kRunning: a preempted job's
        // handle jumps kQueued -> kCancelled without ever executing.
        const api::JobStatus status = job->handle.status();
        if (!job->started_recorded && status == api::JobStatus::kRunning) {
          job->started_recorded = true;
          note_started_locked(job->id);
        }
        if (!job->handle.wait_for(std::chrono::milliseconds(0))) {
          ++it;
          continue;
        }
        const api::JobStatus terminal = job->handle.status();
        if (job->preempt_pending &&
            terminal == api::JobStatus::kCancelled &&
            !job->cancel.load(std::memory_order_relaxed) && !stopping_) {
          // Preempted while still queued in the service (or a suspended
          // run whose capture failed and degraded to a cancel): back to
          // the front of its lane for a fresh from-scratch submission
          // after the stronger job.
          job->preempt_pending = false;
          job->in_service = false;
          job->handle = api::JobHandle{};
          requeue.push_back(job);
          ++preempted_queued_;
        } else if (terminal == api::JobStatus::kPreempted &&
                   !job->cancel.load(std::memory_order_relaxed) &&
                   !stopping_) {
          // Suspended mid-run: carry the checkpoint back to the front of
          // the lane — the next claim resumes the walk where it stopped.
          job->preempt_pending = false;
          job->in_service = false;
          job->command.request.resume_from = job->handle.take_checkpoint();
          job->handle = api::JobHandle{};
          requeue.push_back(job);
          ++preempted_running_;
          suspended.push_back(job);
        } else if (terminal == api::JobStatus::kPreempted) {
          // Suspended, but the client cancelled (or the scheduler is
          // stopping) before the requeue: the checkpoint is moot — the
          // job resolves as a plain cancel.
          done.push_back(Finalization{job, std::string(kCancelled),
                                      cancelled_report(*job),
                                      std::string{}});
          jobs_.erase(job->id);
          ++cancelled_;
          it = inflight_.erase(it);
          continue;
        } else {
          // A job that reached done/failed necessarily ran, even if it was
          // too quick for a kRunning probe to catch it in flight.
          if (!job->started_recorded &&
              terminal != api::JobStatus::kCancelled) {
            job->started_recorded = true;
            note_started_locked(job->id);
          }
          const std::string_view status_name = status_of(terminal);
          done.push_back(Finalization{job, std::string(status_name),
                                      job->handle.report(),
                                      job->handle.error()});
          jobs_.erase(job->id);
          if (terminal == api::JobStatus::kDone) {
            ++completed_;
          } else if (terminal == api::JobStatus::kCancelled) {
            ++cancelled_;
          } else {
            ++failed_;
          }
        }
        it = inflight_.erase(it);
      }
      // Requeue preempted jobs at the front of their lanes, preserving
      // their relative FIFO order (reverse iteration + push_front).
      for (auto rit = requeue.rbegin(); rit != requeue.rend(); ++rit) {
        service_lanes_[lane_of(**rit)].push_front(*rit);
      }

      // Preempt: a stronger lane is waiting while weaker in-flight jobs
      // are still queued inside the service — cancel them to make room.
      if (!stopping_) {
        std::size_t strongest_waiting = kNumLanes;
        for (std::size_t i = 0; i < kNumLanes; ++i) {
          if (!service_lanes_[i].empty()) {
            strongest_waiting = i;
            break;
          }
        }
        if (strongest_waiting < kNumLanes) {
          bool queued_victim = false;
          for (const JobPtr& job : inflight_) {
            if (!job->preempt_pending && lane_of(*job) > strongest_waiting &&
                job->handle.status() == api::JobStatus::kQueued) {
              if (job->handle.cancel()) {
                job->preempt_pending = true;
                queued_victim = true;
              }
            }
          }
          // No queued victim and no room to just submit the stronger job:
          // suspend the weakest *running* job to a checkpoint.  Its
          // preempt_pending marks the suspension in flight; the reap above
          // requeues it (checkpoint in hand, or degraded to a plain
          // cancel-requeue when the capture failed).
          if (options_.preempt_running && !queued_victim &&
              inflight_.size() >= options_.service_inflight) {
            JobPtr victim;
            for (const JobPtr& job : inflight_) {
              if (job->preempt_pending) continue;
              if (lane_of(*job) <= strongest_waiting) continue;
              const api::JobStatus status = job->handle.status();
              if (status != api::JobStatus::kRunning &&
                  status != api::JobStatus::kDegraded) {
                continue;
              }
              if (!victim || lane_of(*job) > lane_of(*victim)) victim = job;
            }
            if (victim && victim->handle.suspend()) {
              victim->preempt_pending = true;
            }
          }
        }

        // Submit: fill the service up to the in-flight cap, strongest
        // lane first.
        while (inflight_.size() < options_.service_inflight) {
          JobPtr job;
          for (auto& lane : service_lanes_) {
            if (!lane.empty()) {
              job = lane.front();
              lane.pop_front();
              break;
            }
          }
          if (!job) break;
          if (job->cancel.load(std::memory_order_relaxed)) {
            done.push_back(
                Finalization{job, std::string(kCancelled),
                             cancelled_report(*job), std::string{}});
            jobs_.erase(job->id);
            ++cancelled_;
            continue;
          }
          api::JobStream stream;
          if (job->command.stream && job->command.sample_period != 0) {
            const JobPtr sink = job;
            stream.on_sample = [sink](std::size_t walker,
                                      std::uint64_t iteration,
                                      csp::Cost cost) {
              sink->offer_sample(walker, iteration, cost);
            };
            stream.sample_period = job->command.sample_period;
          }
          try {
            job->handle = service_.submit(job->command.request,
                                          std::move(stream));
          } catch (const std::exception& ex) {
            done.push_back(Finalization{job, std::string(kFailed),
                                        api::SolveReport{}, ex.what()});
            jobs_.erase(job->id);
            ++failed_;
            continue;
          }
          if (job->command.request.resume_from.has_value()) ++resumed_;
          job->in_service = true;
          inflight_.push_back(job);
        }
      }

      if (stopping_ && inflight_.empty()) {
        // Drain anything still laned (shutdown raced a requeue).
        for (auto& lane : service_lanes_) {
          while (!lane.empty()) {
            const JobPtr job = lane.front();
            lane.pop_front();
            done.push_back(Finalization{job, std::string(kCancelled),
                                        cancelled_report(*job),
                                        std::string{}});
            jobs_.erase(job->id);
            ++cancelled_;
          }
        }
        exit_after = true;
      }
    }

    for (const JobPtr& job : suspended) job->emit_preempted();
    for (const Finalization& f : done) finalize(f);
    if (exit_after) return;
    std::this_thread::sleep_for(options_.poll_period);
  }
}

void Scheduler::shutdown() {
  std::vector<Finalization> done;
  {
    std::lock_guard lock(m_);
    if (joined_) return;
    stopping_ = true;
    // Drain the lanes: queued jobs finalize as cancelled right here.
    for (auto* lanes : {&warm_lanes_, &service_lanes_}) {
      for (auto& lane : *lanes) {
        while (!lane.empty()) {
          const JobPtr job = lane.front();
          lane.pop_front();
          done.push_back(Finalization{job, std::string(kCancelled),
                                      cancelled_report(*job), std::string{}});
          jobs_.erase(job->id);
          ++cancelled_;
        }
      }
    }
    // Anything still live is held by a worker or the service: flag it.
    for (const auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
      if (job->in_service) (void)job->handle.cancel();
    }
  }
  warm_cv_.notify_all();
  for (const Finalization& f : done) finalize(f);
  for (std::thread& thread : warm_threads_) {
    if (thread.joinable()) thread.join();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  service_.shutdown();
  {
    std::lock_guard lock(m_);
    joined_ = true;
  }
}

}  // namespace cspls::serve
