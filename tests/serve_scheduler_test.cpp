// serve::Scheduler over the one serving engine: lane priority, running
// preemption with checkpoint resume, admission control, cancellation
// semantics, shutdown, and stats panes that agree with the events a
// client saw.  Start order is observed the way a client sees it: every
// walk samples at iteration 0, so a job's first `sample` marks its start.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"

namespace cspls::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr milliseconds kTestTimeout{30'000};

bool eventually(const std::function<bool()>& predicate,
                milliseconds timeout = kTestTimeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return predicate();
}

/// One resident worker, so jobs start one at a time in claim order.
SchedulerOptions one_worker() {
  SchedulerOptions options;
  options.service.thread_budget = 1;
  return options;
}

SolveCommand streaming(SolveCommand command) {
  command.stream = true;
  command.sample_period = 1 << 20;  // in practice: the start sample only
  return command;
}

SolveCommand quick(Priority priority, std::uint64_t seed) {
  SolveCommand command;
  command.request.problem = "costas:7";
  command.request.walkers = 1;
  command.request.seed = seed;
  command.request.scheduling = parallel::Scheduling::kSequential;
  command.priority = priority;
  return streaming(command);
}

SolveCommand endless(Priority priority, std::uint64_t seed) {
  // Unsolvable instance with an hours-long budget: only cancel (or
  // shutdown) ends it in test time.
  SolveCommand command;
  command.request.problem = "langford:5";
  command.request.walkers = 1;
  command.request.seed = seed;
  command.request.scheduling = parallel::Scheduling::kSequential;
  command.request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 1'000'000'000'000;  // ~a day even at 10M it/s
  params.max_restarts = 0;
  command.request.params = params;
  command.priority = priority;
  return streaming(command);
}

/// Collects what a client sees per job: acceptance, start order (first
/// sample), preemption notices and the terminal status.
struct Recorder {
  std::mutex m;
  std::vector<std::uint64_t> accepted;
  std::vector<std::uint64_t> starts;
  std::map<std::uint64_t, std::string> status;
  std::map<std::uint64_t, int> preempted;

  JobEvents events() {
    JobEvents events;
    events.on_accepted = [this](std::uint64_t id) {
      std::lock_guard lock(m);
      accepted.push_back(id);
    };
    events.on_sample = [this](std::uint64_t id, std::size_t, std::uint64_t,
                              csp::Cost) {
      std::lock_guard lock(m);
      if (std::find(starts.begin(), starts.end(), id) == starts.end()) {
        starts.push_back(id);
      }
    };
    events.on_preempted = [this](std::uint64_t id) {
      std::lock_guard lock(m);
      ++preempted[id];
    };
    events.on_report = [this](std::uint64_t id, std::string_view status_name,
                              const api::SolveReport&, std::string_view) {
      std::lock_guard lock(m);
      EXPECT_TRUE(status.emplace(id, std::string(status_name)).second)
          << "second report for job " << id;
    };
    return events;
  }

  [[nodiscard]] bool started(std::uint64_t id) {
    std::lock_guard lock(m);
    return std::find(starts.begin(), starts.end(), id) != starts.end();
  }

  [[nodiscard]] std::vector<std::uint64_t> start_order() {
    std::lock_guard lock(m);
    return starts;
  }

  [[nodiscard]] int preemptions_of(std::uint64_t id) {
    std::lock_guard lock(m);
    const auto it = preempted.find(id);
    return it == preempted.end() ? 0 : it->second;
  }

  [[nodiscard]] std::string status_of(std::uint64_t id) {
    std::lock_guard lock(m);
    const auto it = status.find(id);
    return it == status.end() ? std::string{} : it->second;
  }

  [[nodiscard]] std::size_t reported() {
    std::lock_guard lock(m);
    return status.size();
  }

  [[nodiscard]] std::size_t reported_as(std::string_view name) {
    std::lock_guard lock(m);
    return static_cast<std::size_t>(
        std::count_if(status.begin(), status.end(),
                      [&](const auto& entry) { return entry.second == name; }));
  }
};

TEST(ServeScheduler, LanesRunStrongestFirst) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  // Occupy the single worker, then queue low jobs and a late high job.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  EXPECT_EQ(recorder.start_order(),
            (std::vector<std::uint64_t>{blocker, high, low1, low2}));
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
}

TEST(ServeScheduler, AStrongerArrivalStartsBeforeEarlierQueuedWeakerJobs) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  // A high blocker: nothing is stronger, so nothing preempts it while
  // lows queue behind it and a normal job arrives after them.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kHigh, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t normal =
      scheduler.submit(quick(Priority::kNormal, 4), recorder.events());
  EXPECT_EQ(scheduler.stats().queued[1], 1u);
  EXPECT_EQ(scheduler.stats().queued[2], 2u);
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  EXPECT_EQ(recorder.start_order(),
            (std::vector<std::uint64_t>{blocker, normal, low1, low2}));
  // Overtaken jobs still terminate with their real status.
  EXPECT_EQ(recorder.status_of(normal), "done");
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
  EXPECT_EQ(scheduler.stats().preempted_running, 0u);
}

TEST(ServeScheduler, AStrongerArrivalOvertakesAQueuedLaneAndARunningJob) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  // blocker0 runs; blocker1, low1 and low2 queue in the low lane.
  const std::uint64_t blocker0 =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker0); }));
  const std::uint64_t blocker1 =
      scheduler.submit(endless(Priority::kLow, 2), recorder.events());
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker0), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker1); }));

  // A high arrival neither waits behind the queued lows nor behind the
  // running blocker1, which is suspended to make room.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 5), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.status_of(high) == "done"; }));
  EXPECT_EQ(recorder.preemptions_of(blocker1), 1);
  EXPECT_EQ(scheduler.cancel(blocker1), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 5; }));
  EXPECT_EQ(recorder.start_order(),
            (std::vector<std::uint64_t>{blocker0, blocker1, high, low1, low2}));
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
  EXPECT_EQ(recorder.status_of(blocker1), "cancelled");
}

TEST(ServeScheduler, ARunningLowJobIsSuspendedToACheckpointForAHighArrival) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  const std::uint64_t low =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(low); }));

  // No slot is free and a stronger job waits: the running low job is
  // suspended to a checkpoint and requeued at the front of its lane
  // carrying it.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.status_of(high) == "done"; }));
  EXPECT_GE(scheduler.stats().preempted_running, 1u);

  // The suspended job is still live (no report yet) and resumes from its
  // checkpoint once the high job released the slot.
  EXPECT_EQ(recorder.status_of(low), "");
  ASSERT_TRUE(eventually([&] { return scheduler.stats().resumed >= 1; }));
  EXPECT_EQ(recorder.preemptions_of(low), 1);

  EXPECT_EQ(scheduler.cancel(low), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 2; }));
  EXPECT_EQ(recorder.status_of(low), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.preempted_running, 1u);
  EXPECT_EQ(stats.resumed, 1u);
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("preempted_running").as_uint64(), 1u);
  EXPECT_EQ(json.at("resumed").as_uint64(), 1u);
  scheduler.shutdown();
}

TEST(ServeScheduler, AFullLaneRejectsSubmissionsAsOverloaded) {
  SchedulerOptions options = one_worker();
  options.service.max_lane_depth = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker); }));
  const std::uint64_t queued =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());

  // The normal lane is at its depth bound: the next submit is rejected with
  // the stable `overloaded` code, before on_accepted fires.
  try {
    (void)scheduler.submit(quick(Priority::kNormal, 3), recorder.events());
    FAIL() << "submit into a full lane must throw";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code(), kErrOverloaded);
  }
  EXPECT_EQ(recorder.accepted.size(), 2u);
  EXPECT_EQ(scheduler.stats().rejected_overload, 1u);
  EXPECT_EQ(scheduler.stats().submitted, 2u);

  // The HTTP pre-check counts the same way; an empty lane admits.
  EXPECT_TRUE(scheduler.reject_overloaded(Priority::kNormal));
  EXPECT_EQ(scheduler.stats().rejected_overload, 2u);
  EXPECT_FALSE(scheduler.reject_overloaded(Priority::kHigh));
  EXPECT_EQ(scheduler.stats().rejected_overload, 2u);

  // Draining the lane readmits.
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kCancelled);
  const std::uint64_t admitted =
      scheduler.submit(quick(Priority::kNormal, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 3; }));
  EXPECT_EQ(recorder.status_of(admitted), "done");
  EXPECT_EQ(scheduler.stats().to_json().at("rejected_overload").as_uint64(),
            2u);
  scheduler.shutdown();
}

TEST(ServeScheduler, CancelSemanticsAndStatsCounters) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  EXPECT_EQ(scheduler.cancel(77), Scheduler::CancelResult::kUnknown);

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker); }));
  const std::uint64_t queued =
      scheduler.submit(quick(Priority::kNormal, 2), recorder.events());

  // Cancelling a lane-queued job reports immediately, without running.
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kCancelled);
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kAlreadyTerminal);
  EXPECT_FALSE(recorder.started(queued));

  const std::uint64_t done =
      scheduler.submit(quick(Priority::kHigh, 3), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 3; }));
  EXPECT_EQ(recorder.status_of(done), "done");
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // The JSON snapshot mirrors the struct, member for member.
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("submitted").as_uint64(), 3u);
  EXPECT_EQ(json.at("completed").as_uint64(), 1u);
  EXPECT_EQ(json.at("cancelled").as_uint64(), 2u);
  EXPECT_EQ(json.at("queued_high").as_uint64(), 0u);
}

TEST(ServeScheduler, ShutdownCancelsQueuedJobsWithoutStartingThem) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  const std::uint64_t blocker0 =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker0); }));
  const std::uint64_t blocker1 =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());
  const std::uint64_t q1 =
      scheduler.submit(quick(Priority::kNormal, 3), recorder.events());
  const std::uint64_t q2 =
      scheduler.submit(quick(Priority::kNormal, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker0), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker1); }));

  scheduler.shutdown();

  EXPECT_EQ(recorder.status_of(blocker0), "cancelled");
  EXPECT_EQ(recorder.status_of(blocker1), "cancelled");
  EXPECT_EQ(recorder.status_of(q1), "cancelled");
  EXPECT_EQ(recorder.status_of(q2), "cancelled");
  EXPECT_EQ(recorder.reported(), 4u);
  // The queued jobs were cancelled, not run.
  EXPECT_EQ(recorder.start_order(),
            (std::vector<std::uint64_t>{blocker0, blocker1}));
  EXPECT_EQ(scheduler.stats().cancelled, 4u);
}

TEST(ServeScheduler, AnInvalidRequestIsRejectedAtSubmission) {
  Scheduler scheduler;
  Recorder recorder;
  SolveCommand command = quick(Priority::kNormal, 1);
  command.request.problem = "no-such-problem:9";
  EXPECT_THROW((void)scheduler.submit(std::move(command), recorder.events()),
               std::invalid_argument);
  // The retry policy is part of the request the submit validates.
  SolveCommand shrinking = quick(Priority::kNormal, 2);
  shrinking.request.retry.max_attempts = 3;
  shrinking.request.retry.multiplier = 0.5;
  EXPECT_THROW((void)scheduler.submit(std::move(shrinking), recorder.events()),
               std::invalid_argument);
  EXPECT_EQ(scheduler.stats().submitted, 0u);
  EXPECT_TRUE(recorder.accepted.empty());
}

TEST(ServeScheduler, ShutdownCancelsQueuedAndRunningJobs) {
  Scheduler scheduler(one_worker());
  Recorder recorder;

  const std::uint64_t running =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(running); }));
  const std::uint64_t queued =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());

  scheduler.shutdown();
  EXPECT_EQ(recorder.status_of(running), "cancelled");
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_THROW(
      (void)scheduler.submit(quick(Priority::kNormal, 3), recorder.events()),
      std::runtime_error);
}

TEST(ServeScheduler, StatsPanesAgreeWithEachOtherAndWithTheEvents) {
  SchedulerOptions options = one_worker();
  options.service.max_lane_depth = 2;
  Scheduler scheduler(options);
  Recorder recorder;

  // Preempted and resumed: a running low job makes room for a high one.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.started(blocker); }));
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());
  ASSERT_TRUE(eventually([&] { return recorder.status_of(high) == "done"; }));
  ASSERT_TRUE(eventually([&] { return scheduler.stats().resumed == 1; }));

  // Failed: a warm start the instance cannot take passes submission and
  // fails when it runs.  Cancelled: a queued job.  Rejected: a full lane.
  SolveCommand doomed = quick(Priority::kLow, 3);
  doomed.request.warm_start = std::vector<int>{1, 2, 3};
  const std::uint64_t failed =
      scheduler.submit(std::move(doomed), recorder.events());
  const std::uint64_t victim =
      scheduler.submit(quick(Priority::kLow, 4), recorder.events());
  EXPECT_THROW(
      (void)scheduler.submit(quick(Priority::kLow, 5), recorder.events()),
      ProtocolError);
  EXPECT_EQ(scheduler.cancel(victim), Scheduler::CancelResult::kCancelled);
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  EXPECT_EQ(recorder.status_of(failed), "failed");

  const SchedulerStats panel = scheduler.stats();
  const api::ServiceStats service = scheduler.service_stats();
  // The scheduler pane against the events the client saw.
  EXPECT_EQ(panel.submitted, recorder.accepted.size());
  EXPECT_EQ(panel.completed, recorder.reported_as("done"));
  EXPECT_EQ(panel.cancelled, recorder.reported_as("cancelled"));
  EXPECT_EQ(panel.failed, recorder.reported_as("failed"));
  EXPECT_EQ(panel.preempted_running,
            static_cast<std::uint64_t>(recorder.preemptions_of(blocker)));
  EXPECT_EQ(panel.preempted_running, 1u);
  EXPECT_EQ(panel.resumed, 1u);
  EXPECT_EQ(panel.rejected_overload, 1u);
  EXPECT_EQ(panel.queued, (std::array<std::size_t, kNumLanes>{}));
  EXPECT_EQ(panel.inflight, 0u);
  // ... and against the service pane.
  EXPECT_EQ(service.submitted, panel.submitted);
  EXPECT_EQ(service.completed, panel.completed);
  EXPECT_EQ(service.cancelled, panel.cancelled);
  EXPECT_EQ(service.failed, panel.failed);
  EXPECT_EQ(service.preempted, panel.preempted_running);
  EXPECT_EQ(service.running, panel.inflight);
  const util::Json service_json = service.to_json();
  EXPECT_EQ(service_json.at("preempted").as_uint64(), 1u);
  EXPECT_EQ(service_json.at("queued").as_uint64(), 0u);
  EXPECT_EQ(service_json.at("free_threads").as_uint64(), 1u);
  EXPECT_FALSE(service_json.contains("fused_batches"));
}

}  // namespace
}  // namespace cspls::serve
