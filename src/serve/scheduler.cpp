#include "serve/scheduler.hpp"

#include <memory>
#include <mutex>
#include <utility>

namespace cspls::serve {

namespace {

/// One job's protocol state, shared by its engine callbacks: the id and
/// the sample filter.  Walkers of one attempt sample concurrently, so the
/// filter takes a lock; the engine already orders everything else — an
/// attempt's samples end before its preempted notice or report, and a
/// resumed attempt starts after the notice.
struct ServeJob {
  explicit ServeJob(JobEvents job_events) : events(std::move(job_events)) {}

  JobEvents events;
  std::uint64_t id = 0;  ///< set by on_accepted, before any other callback
  std::mutex m;
  csp::Cost best_seen = csp::kInfiniteCost;  ///< guarded by m
};

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

Scheduler::Scheduler(SchedulerOptions options) : service_(options.service) {}

std::uint64_t Scheduler::submit(SolveCommand command, JobEvents events) {
  const auto job = std::make_shared<ServeJob>(std::move(events));
  api::JobCallbacks callbacks;
  callbacks.on_accepted = [job](std::uint64_t id) {
    job->id = id;
    if (job->events.on_accepted) job->events.on_accepted(id);
  };
  if (command.stream) {
    callbacks.sample_period = command.sample_period != 0
                                  ? command.sample_period
                                  : kDefaultSamplePeriod;
    callbacks.on_sample = [job](std::size_t walker, std::uint64_t iteration,
                                csp::Cost cost) {
      std::lock_guard lock(job->m);
      if (cost >= job->best_seen) return;
      job->best_seen = cost;
      if (job->events.on_sample) {
        job->events.on_sample(job->id, walker, iteration, cost);
      }
    };
  }
  callbacks.on_preempted = [job] {
    if (job->events.on_preempted) job->events.on_preempted(job->id);
  };
  callbacks.on_done = [job](api::JobStatus status,
                            const api::SolveReport& report,
                            std::string_view error) {
    if (job->events.on_report) {
      job->events.on_report(job->id, api::name_of(status), report, error);
    }
  };
  try {
    return service_
        .submit(std::move(command.request), command.priority,
                std::move(callbacks))
        .id();
  } catch (const api::OverloadedError& error) {
    throw ProtocolError(kErrOverloaded, error.what());
  }
}

SchedulerStats Scheduler::stats() const {
  const api::ServiceStats service = service_.stats();
  SchedulerStats stats;
  stats.queued = service.queued;
  stats.inflight = service.running;
  stats.submitted = service.submitted;
  stats.completed = service.completed;
  stats.cancelled = service.cancelled;
  stats.failed = service.failed;
  stats.preempted_running = service.preempted;
  stats.resumed = service.resumed;
  stats.rejected_overload = service.rejected;
  return stats;
}

}  // namespace cspls::serve
