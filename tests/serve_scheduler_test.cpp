// serve::Scheduler: lane priority on the warm path, batch give-back
// preemption, service-queued preemption with correct terminal statuses,
// cancellation semantics and shutdown.
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

SolveCommand quick(Priority priority, std::uint64_t seed) {
  SolveCommand command;
  command.request.problem = "costas:7";
  command.request.walkers = 1;
  command.request.seed = seed;
  command.request.scheduling = parallel::Scheduling::kSequential;
  command.priority = priority;
  return command;
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
  return command;
}

/// Collects terminal statuses keyed by job id.
struct Recorder {
  std::mutex m;
  std::map<std::uint64_t, std::string> status;
  std::map<std::uint64_t, int> preempted;

  JobEvents events() {
    JobEvents events;
    events.on_preempted = [this](std::uint64_t id) {
      std::lock_guard lock(m);
      ++preempted[id];
    };
    events.on_report = [this](std::uint64_t id, std::string_view status_name,
                              const api::SolveReport&, std::string_view) {
      std::lock_guard lock(m);
      status.emplace(id, std::string(status_name));
    };
    return events;
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
};

bool started(Scheduler& scheduler, std::uint64_t id) {
  const std::vector<std::uint64_t> order = scheduler.started_order();
  return std::find(order.begin(), order.end(), id) != order.end();
}

TEST(ServeScheduler, StartedOrderKeepsOnlyTheRecentWindow) {
  SchedulerOptions options;
  options.warm_workers = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // One worker runs the jobs one at a time, in submission order.
  constexpr std::size_t kJobs = Scheduler::kStartedWindow + 10;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ids.push_back(scheduler.submit(quick(Priority::kNormal, i + 1),
                                   recorder.events()));
  }
  ASSERT_TRUE(eventually([&] { return recorder.reported() == kJobs; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  EXPECT_EQ(order, std::vector<std::uint64_t>(
                       ids.end() - Scheduler::kStartedWindow, ids.end()));
}

TEST(ServeScheduler, WarmLanesRunStrongestFirst) {
  SchedulerOptions options;
  options.warm_workers = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // Occupy the single worker, then queue low jobs and a late high job.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], high);  // jumped both queued lows
  EXPECT_EQ(order[2], low1);
  EXPECT_EQ(order[3], low2);
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
}

TEST(ServeScheduler, WarmBatchGivesBackUnstartedJobsToAStrongerArrival) {
  SchedulerOptions options;
  options.warm_workers = 1;
  options.warm_batch_max = 8;
  Scheduler scheduler(options);
  Recorder recorder;

  // Worker busy on blocker0; the low lane then fills so the next claim is
  // one batch [blocker1, low1, low2].
  const std::uint64_t blocker0 =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker0); }));
  const std::uint64_t blocker1 =
      scheduler.submit(endless(Priority::kLow, 2), recorder.events());
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker0), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker1); }));

  // The worker now holds [low1, low2] claimed but unstarted.  A high
  // arrival must take them back to the lane, not wait behind them.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 5), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker1), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 5; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], blocker0);
  EXPECT_EQ(order[1], blocker1);
  EXPECT_EQ(order[2], high);
  EXPECT_EQ(order[3], low1);  // give-back preserved lane order
  EXPECT_EQ(order[4], low2);
  EXPECT_EQ(scheduler.stats().givebacks, 2u);
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
}

TEST(ServeScheduler, ServiceQueuedJobsArePreemptedAndStillFinish) {
  SchedulerOptions options;
  options.warm_lease_threshold = 0;  // everything takes the service path
  options.service_inflight = 3;
  options.service.thread_budget = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // One endless job saturates the walker budget; two quick lows queue
  // inside the service behind it.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  ASSERT_TRUE(eventually(
      [&] { return scheduler.service_stats().queued == 2; }));

  // A high submit under a saturated budget: the queued lows are preempted
  // back to their lane so the high job is next in the service.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 4), recorder.events());
  ASSERT_TRUE(
      eventually([&] { return scheduler.stats().preempted_queued >= 2; }));
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  ASSERT_GE(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], high);  // started before the earlier-queued lows
  // Preempted jobs still terminate with their real status.
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");
  EXPECT_EQ(scheduler.stats().preempted_queued, 2u);
}

TEST(ServeScheduler, ARunningLowJobIsSuspendedToACheckpointForAHighArrival) {
  SchedulerOptions options;
  options.warm_lease_threshold = 0;  // everything takes the service path
  options.service_inflight = 1;      // the running low job fills the service
  options.service.thread_budget = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t low =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, low); }));

  // No queued victim exists, the service is at its in-flight cap, and a
  // stronger job waits: the running low job is suspended to a checkpoint
  // and requeued at the front of its lane carrying it.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());
  ASSERT_TRUE(
      eventually([&] { return scheduler.stats().preempted_running >= 1; }));
  ASSERT_TRUE(eventually([&] { return recorder.status_of(high) == "done"; }));

  // The suspended job is still live (no report yet) and resumes from its
  // checkpoint once the high job released the service slot.
  EXPECT_EQ(recorder.status_of(low), "");
  ASSERT_TRUE(eventually([&] { return scheduler.stats().resumed >= 1; }));
  ASSERT_TRUE(eventually([&] { return recorder.preemptions_of(low) >= 1; }));

  EXPECT_EQ(scheduler.cancel(low), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 2; }));
  EXPECT_EQ(recorder.status_of(low), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.preempted_running, 1u);
  EXPECT_GE(stats.resumed, 1u);
  EXPECT_EQ(stats.preempted_queued, 0u);
  const util::Json json = stats.to_json();
  EXPECT_GE(json.at("preempted_running").as_uint64(), 1u);
  EXPECT_GE(json.at("resumed").as_uint64(), 1u);
  scheduler.shutdown();
}

TEST(ServeScheduler, RunningPreemptionCanBeDisabled) {
  SchedulerOptions options;
  options.warm_lease_threshold = 0;
  options.service_inflight = 1;
  options.service.thread_budget = 1;
  options.preempt_running = false;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t low =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, low); }));
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());

  // The high job waits out the running low job instead of suspending it.
  EXPECT_FALSE(eventually(
      [&] { return scheduler.stats().preempted_running > 0; },
      milliseconds(200)));
  EXPECT_EQ(recorder.status_of(high), "");

  EXPECT_EQ(scheduler.cancel(low), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 2; }));
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(scheduler.stats().preempted_running, 0u);
  scheduler.shutdown();
}

TEST(ServeScheduler, AFullLaneRejectsSubmissionsAsOverloaded) {
  SchedulerOptions options;
  options.warm_workers = 1;
  options.max_lane_depth = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
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
  SchedulerOptions options;
  options.warm_workers = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  EXPECT_EQ(scheduler.cancel(77), Scheduler::CancelResult::kUnknown);

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t queued =
      scheduler.submit(quick(Priority::kNormal, 2), recorder.events());

  // Cancelling a lane-queued job reports immediately, without running.
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kCancelled);
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kAlreadyTerminal);

  const std::uint64_t done =
      scheduler.submit(quick(Priority::kHigh, 3), recorder.events());
  // Cancelling the running blocker frees the only worker for the high job.
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 3; }));
  EXPECT_EQ(recorder.status_of(done), "done");
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 1u);
  // The JSON snapshot mirrors the struct, member for member.
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("submitted").as_uint64(), 3u);
  EXPECT_EQ(json.at("completed").as_uint64(), 1u);
  EXPECT_EQ(json.at("cancelled").as_uint64(), 2u);
  EXPECT_EQ(json.at("queued_high").as_uint64(), 0u);
}

TEST(ServeScheduler, FusedBatchCountersTrackFusedLaunches) {
  SchedulerOptions options;
  options.warm_workers = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // Fill the lane while the single worker is pinned, so the next claim is
  // one batch of four — which the default configuration runs as one fused
  // launch.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 2; seed <= 5; ++seed) {
    ids.push_back(
        scheduler.submit(quick(Priority::kNormal, seed), recorder.events()));
  }
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 5; }));
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(recorder.status_of(id), "done");
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_EQ(stats.fused_jobs, 4u);
  EXPECT_EQ(stats.completed, 4u);
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("fused_batches").as_uint64(), 1u);
  EXPECT_EQ(json.at("fused_jobs").as_uint64(), 4u);
}

/// Shutdown racing a claimed warm batch: the member already running stops
/// and reports "cancelled"; claimed-but-unstarted members get a terminal
/// cancel event WITHOUT running — no start record, no walker start-up.
void shutdown_while_batch_claimed(bool fuse) {
  SchedulerOptions options;
  options.warm_workers = 1;
  options.warm_batch_max = 8;
  options.fuse_warm_batches = fuse;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t blocker0 =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker0); }));
  const std::uint64_t blocker1 =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());
  const std::uint64_t q1 =
      scheduler.submit(quick(Priority::kNormal, 3), recorder.events());
  const std::uint64_t q2 =
      scheduler.submit(quick(Priority::kNormal, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker0), Scheduler::CancelResult::kCancelled);
  // The worker now holds the claimed batch [blocker1, q1, q2] and is
  // running blocker1; q1 and q2 are claimed but unstarted.
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker1); }));

  scheduler.shutdown();

  EXPECT_EQ(recorder.status_of(blocker0), "cancelled");
  EXPECT_EQ(recorder.status_of(blocker1), "cancelled");
  EXPECT_EQ(recorder.status_of(q1), "cancelled");
  EXPECT_EQ(recorder.status_of(q2), "cancelled");
  EXPECT_EQ(recorder.reported(), 4u);
  // The unstarted claims were returned, not run.
  const std::vector<std::uint64_t> order = scheduler.started_order();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{blocker0, blocker1}));
  EXPECT_EQ(scheduler.stats().cancelled, 4u);
}

TEST(ServeScheduler, ShutdownWhileBatchClaimedCancelsUnstartedWithoutRunning) {
  shutdown_while_batch_claimed(/*fuse=*/true);
}

TEST(ServeScheduler,
     ShutdownWhileBatchClaimedCancelsUnstartedWithoutRunningUnfused) {
  shutdown_while_batch_claimed(/*fuse=*/false);
}

TEST(ServeScheduler, AnInvalidRequestIsRejectedAtSubmission) {
  Scheduler scheduler;
  Recorder recorder;
  SolveCommand command = quick(Priority::kNormal, 1);
  command.request.problem = "no-such-problem:9";
  EXPECT_THROW((void)scheduler.submit(std::move(command), recorder.events()),
               std::invalid_argument);
  EXPECT_EQ(scheduler.stats().submitted, 0u);
}

TEST(ServeScheduler, ShutdownCancelsQueuedAndRunningJobs) {
  SchedulerOptions options;
  options.warm_workers = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t running =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, running); }));
  const std::uint64_t queued =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());

  scheduler.shutdown();
  EXPECT_EQ(recorder.status_of(running), "cancelled");
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_THROW(
      (void)scheduler.submit(quick(Priority::kNormal, 3), recorder.events()),
      std::runtime_error);
}

}  // namespace
}  // namespace cspls::serve
