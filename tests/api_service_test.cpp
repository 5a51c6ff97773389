// api::SolverService, the one serving engine: concurrent jobs under a
// bounded thread budget, strongest-first lanes, admission, running
// preemption with byte-identical resume, per-job callbacks, cancellation
// of queued and running jobs, failure surfacing and shutdown semantics.
#include "api/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace cspls::api {
namespace {

using std::chrono::milliseconds;

SolveRequest quick_request(std::uint64_t seed) {
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kFirstFinisher;
  return request;
}

SolveRequest endless_request(std::uint64_t seed) {
  // Unsolvable instance with an hours-long budget: only cancel/deadline
  // (or service shutdown) ends it in test time.
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 1'000'000'000'000;  // ~a day even at 10M it/s
  params.max_restarts = 0;
  request.params = params;
  return request;
}

SolveRequest tiny_request(std::uint64_t seed) {
  SolveRequest request = quick_request(seed);
  request.walkers = 1;
  request.scheduling = parallel::Scheduling::kSequential;
  return request;
}

/// The order in which jobs start walking.  Every walk samples at
/// iteration 0, so a job's first sample marks its start.
class StartLog {
 public:
  /// Callbacks that log job `label`'s start.
  JobCallbacks track(int label) {
    JobCallbacks callbacks;
    callbacks.sample_period = 1 << 20;
    callbacks.on_sample = [this, label](std::size_t, std::uint64_t,
                                        csp::Cost) {
      std::lock_guard lock(m_);
      if (std::find(order_.begin(), order_.end(), label) == order_.end()) {
        order_.push_back(label);
        cv_.notify_all();
      }
    };
    return callbacks;
  }

  bool wait_started(int label) {
    std::unique_lock lock(m_);
    return cv_.wait_for(lock, milliseconds(30'000), [&] {
      return std::find(order_.begin(), order_.end(), label) != order_.end();
    });
  }

  std::vector<int> order() {
    std::lock_guard lock(m_);
    return order_;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::vector<int> order_;
};

TEST(SolverService, RunsConcurrentJobsUnderAThreadBudget) {
  SolverService service(SolverService::Options{2});
  EXPECT_EQ(service.thread_budget(), 2u);

  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    jobs.push_back(service.submit(quick_request(seed)));
  }
  for (const JobHandle& job : jobs) {
    const SolveReport& report = job.wait();
    EXPECT_TRUE(report.solved);
    EXPECT_FALSE(report.cancelled);
    EXPECT_EQ(job.status(), JobStatus::kDone);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, BudgetOfOneStillCompletesEveryJob) {
  SolverService service(SolverService::Options{1});
  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(service.submit(quick_request(seed)));
  }
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
  }
}

TEST(SolverService, ResultsAreDeterministicUnderQueueing) {
  // The thread budget shapes *when* a job runs, never its trajectory: the
  // same request solved directly and through a contended queue agree.
  SolveRequest request = quick_request(77);
  request.termination = parallel::Termination::kBestAfterBudget;
  const SolveReport direct = Solver::solve(request);

  SolverService service(SolverService::Options{1});
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(service.submit(request));
  for (const JobHandle& job : jobs) {
    const SolveReport& queued = job.wait();
    EXPECT_EQ(queued.solved, direct.solved);
    EXPECT_EQ(queued.winner, direct.winner);
    EXPECT_EQ(queued.cost, direct.cost);
    EXPECT_EQ(queued.solution, direct.solution);
    EXPECT_EQ(queued.total_iterations, direct.total_iterations);
  }
}

TEST(SolverService, CancelStopsARunningThreadsJob) {
  SolverService service(SolverService::Options{2});
  const JobHandle job = service.submit(endless_request(5));

  // Wait for admission, then let the walkers actually run a bit.
  util::Stopwatch watch;
  while (job.status() == JobStatus::kQueued && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(job.status(), JobStatus::kRunning);
  std::this_thread::sleep_for(milliseconds(50));

  EXPECT_TRUE(job.cancel());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_EQ(job.status(), JobStatus::kCancelled);
  const SolveReport& report = job.wait();  // cancelled jobs return normally
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.solved);
  // Anytime contract: the partial run still reports its best state.
  EXPECT_FALSE(report.walkers.empty());
  EXPECT_FALSE(job.cancel());  // already terminal
}

TEST(SolverService, CancelAQueuedJobBeforeItRuns) {
  SolverService service(SolverService::Options{1});
  const JobHandle running = service.submit(endless_request(6));
  const JobHandle queued = service.submit(quick_request(1));

  // The budget of one is held by `running`, so `queued` sits in the FIFO.
  EXPECT_TRUE(queued.cancel());
  ASSERT_TRUE(queued.wait_for(milliseconds(30'000)));
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.wait().cancelled);

  EXPECT_TRUE(running.cancel());
  ASSERT_TRUE(running.wait_for(milliseconds(30'000)));
}

TEST(SolverService, DeadlinesWorkThroughTheService) {
  SolverService service(SolverService::Options{2});
  SolveRequest request = endless_request(7);
  request.deadline_ms = 100;
  const JobHandle job = service.submit(request);
  ASSERT_TRUE(job.wait_for(milliseconds(60'000)));
  const SolveReport& report = job.wait();
  EXPECT_EQ(job.status(), JobStatus::kDone);  // ended on its own (deadline)
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(SolverService, SubmitRejectsBadSpecsSynchronously) {
  SolverService service(SolverService::Options{1});
  SolveRequest request = quick_request(1);
  request.problem = "knapsack:10";
  try {
    (void)service.submit(request);
    FAIL() << "bad spec accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("valid names"), std::string::npos);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, SubmitRejectsDegeneratePoolOptionsSynchronously) {
  // Degenerate WalkerPool configurations fail at the submission site (the
  // submit contract), not as an asynchronously kFailed job.
  SolverService service(SolverService::Options{1});
  SolveRequest zero_walkers = quick_request(1);
  zero_walkers.walkers = 0;
  EXPECT_THROW((void)service.submit(zero_walkers), std::invalid_argument);
  SolveRequest silent_exchange = quick_request(1);
  silent_exchange.neighborhood = parallel::Neighborhood::kRing;
  silent_exchange.exchange = parallel::Exchange::kElite;
  silent_exchange.comm_period = 0;
  EXPECT_THROW((void)service.submit(silent_exchange), std::invalid_argument);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, SubmitAfterShutdownReportsShutdownNotValidation) {
  // Regression: submit() used to validate the request *before* checking the
  // shutdown flag, so a malformed request submitted after shutdown was
  // misreported as a parse/validation error.  Shutdown wins: every
  // post-shutdown submission fails the same way, malformed or not.
  SolverService service(SolverService::Options{1});
  service.shutdown();

  SolveRequest malformed = quick_request(1);
  malformed.problem = "knapsack:10";  // would fail validation
  try {
    (void)service.submit(malformed);
    FAIL() << "submit accepted after shutdown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("submit after shutdown"),
              std::string::npos)
        << e.what();
  } catch (const std::invalid_argument& e) {
    FAIL() << "validation error leaked past shutdown: " << e.what();
  }

  // A perfectly valid request is rejected identically.
  EXPECT_THROW((void)service.submit(quick_request(2)), std::runtime_error);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, ShutdownIsIdempotentAndCancelsOutstandingJobs) {
  SolverService service(SolverService::Options{1});
  const JobHandle running = service.submit(endless_request(11));
  const JobHandle queued = service.submit(endless_request(12));
  service.shutdown();
  service.shutdown();  // second call is a no-op
  EXPECT_EQ(running.status(), JobStatus::kCancelled);
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.wait().cancelled);
}

TEST(SolverService, DestructionCancelsOutstandingJobs) {
  JobHandle survivor;
  {
    SolverService service(SolverService::Options{1});
    survivor = service.submit(endless_request(8));
    (void)service.submit(endless_request(9));  // stays queued behind it
    // Service destructor: cancels both, joins workers.
  }
  ASSERT_TRUE(survivor.valid());
  ASSERT_TRUE(survivor.wait_for(milliseconds(1)));  // already terminal
  EXPECT_EQ(survivor.status(), JobStatus::kCancelled);
}

TEST(SolverService, InvalidHandleThrowsInsteadOfCrashing) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW((void)handle.id(), std::logic_error);
  EXPECT_THROW((void)handle.status(), std::logic_error);
  EXPECT_THROW((void)handle.wait(), std::logic_error);
  EXPECT_THROW((void)handle.wait_for(milliseconds(1)), std::logic_error);
  EXPECT_THROW((void)handle.cancel(), std::logic_error);
}

TEST(SolverService, DeepQueueDrainsWithoutThreadGrowth) {
  // Submission only enqueues (no thread per queued job): a queue much
  // deeper than the budget must drain completely.
  SolverService service(SolverService::Options{2});
  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SolveRequest request = quick_request(seed);
    request.walkers = 1;
    jobs.push_back(service.submit(request));
  }
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

// --- Shutdown / completion races (exercised under the CI TSan leg) -----

TEST(SolverServiceRaces, ShutdownWithJobsStillQueued) {
  // Shutdown while the FIFO is deep: every queued job must resolve
  // kCancelled exactly once, with no handle left hanging — regardless of
  // how far the dispatcher got with admissions.
  for (int round = 0; round < 4; ++round) {
    SolverService service(SolverService::Options{1});
    std::vector<JobHandle> jobs;
    jobs.push_back(service.submit(endless_request(100 + round)));
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      jobs.push_back(service.submit(quick_request(seed)));
    }
    service.shutdown();
    for (const JobHandle& job : jobs) {
      ASSERT_TRUE(job.wait_for(milliseconds(1)));  // already terminal
      EXPECT_EQ(job.status(), JobStatus::kCancelled);
      EXPECT_TRUE(job.report().cancelled);
    }
    EXPECT_EQ(service.pending_jobs(), 0u);
  }
}

TEST(SolverServiceRaces, CancelRacingNaturalCompletion) {
  // cancel() fired from another thread while quick jobs finish on their
  // own: whichever side wins, the job lands in exactly one terminal state
  // and the report matches it (a late cancel must never wrap a solved,
  // uncancelled report in a kCancelled status).
  SolverService service(SolverService::Options{2});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const JobHandle job = service.submit(quick_request(seed));
    std::jthread canceller([&job] { (void)job.cancel(); });
    ASSERT_TRUE(job.wait_for(milliseconds(60'000)));
    canceller.join();
    const JobStatus status = job.status();
    const SolveReport& report = job.report();
    if (status == JobStatus::kCancelled) {
      EXPECT_TRUE(report.cancelled);
    } else {
      ASSERT_EQ(status, JobStatus::kDone);
      EXPECT_FALSE(report.cancelled);
    }
    // Terminal is terminal: the loser of the race cannot re-open the job.
    EXPECT_FALSE(job.cancel());
    EXPECT_EQ(job.status(), status);
  }
}

TEST(SolverServiceRaces, ConcurrentWaitersAllObserveTheSameReport) {
  // Several threads in wait() plus repeated wait() on one handle: every
  // waiter must return the same terminal report object (wait() after
  // terminal is a pure read, never a second consume).
  SolverService service(SolverService::Options{2});
  const JobHandle job = service.submit(quick_request(5));
  const SolveReport* seen[3] = {nullptr, nullptr, nullptr};
  {
    std::vector<std::jthread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&job, &seen, i] { seen[i] = &job.wait(); });
    }
  }
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
  // Double-wait on the same thread: identical reference, unchanged report.
  const SolveReport& first = job.wait();
  const SolveReport& second = job.wait();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.to_json_string(), second.to_json_string());
  EXPECT_EQ(&first, seen[0]);
}

TEST(SolverService, SequentialJobsLeaseOneSlotAndFinish) {
  SolverService service(SolverService::Options{2});
  SolveRequest request = quick_request(3);
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  const JobHandle job = service.submit(request);
  EXPECT_TRUE(job.wait().solved);
}

TEST(SolverService, StatsSnapshotTracksLifecycleAndEncodesToJson) {
  SolverService service(SolverService::Options{2});
  const ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.submitted, 0u);
  EXPECT_EQ(fresh.thread_budget, 2u);
  EXPECT_EQ(fresh.free_threads, 2u);

  const JobHandle done = service.submit(quick_request(1));
  (void)done.wait();
  JobHandle cancelled = service.submit(endless_request(2));
  EXPECT_TRUE(cancelled.cancel());
  ASSERT_TRUE(cancelled.wait_for(milliseconds(30'000)));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queued, (std::array<std::size_t, kNumLanes>{}));
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.free_threads, stats.thread_budget);

  // The JSON snapshot mirrors the struct, and a quiescent service
  // snapshots byte-identically twice.
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("submitted").as_uint64(), 2u);
  EXPECT_EQ(json.at("completed").as_uint64(), 1u);
  EXPECT_EQ(json.at("cancelled").as_uint64(), 1u);
  EXPECT_TRUE(json.contains("retried"));
  EXPECT_TRUE(json.contains("degraded"));
  EXPECT_EQ(json.dump(0), service.stats().to_json().dump(0));
}

TEST(SolverService, StreamedSamplesArriveWhileMultiplexingWithWaitFor) {
  SolverService service(SolverService::Options{2});
  SolveRequest request = quick_request(7);
  request.walkers = 1;
  request.scheduling = parallel::Scheduling::kSequential;

  std::mutex m;
  std::vector<std::pair<std::uint64_t, csp::Cost>> samples;
  JobCallbacks callbacks;
  callbacks.sample_period = 1;
  callbacks.on_sample = [&m, &samples](std::size_t walker,
                                       std::uint64_t iteration,
                                       csp::Cost cost) {
    EXPECT_EQ(walker, 0u);
    std::lock_guard lock(m);
    samples.emplace_back(iteration, cost);
  };
  const JobHandle job = service.submit(std::move(request), Priority::kNormal,
                                       std::move(callbacks));

  // Multiplex idiom: bounded waits instead of a blocking wait(), leaving
  // the loop free to service other work between polls.
  while (!job.wait_for(milliseconds(10))) {
  }
  EXPECT_EQ(job.status(), JobStatus::kDone);
  const SolveReport& report = job.wait();

  std::lock_guard lock(m);
  ASSERT_GE(samples.size(), 1u);
  EXPECT_EQ(samples.front().first, 0u);  // the walk samples at iteration 0
  for (const auto& [iteration, cost] : samples) {
    // Samples carry the *current* cost, never better than the final best.
    EXPECT_GE(cost, report.cost);
  }
}

TEST(SolverService, SubmitRejectsABadRetryPolicySynchronously) {
  // Regression: submit() validated the spec and the pool options but not
  // the retry policy, so a shrinking multiplier was accepted, ran every
  // attempt and only then failed.  The one validator runs at submit.
  SolverService service(SolverService::Options{1});
  SolveRequest shrinking = quick_request(1);
  shrinking.retry.max_attempts = 3;
  shrinking.retry.multiplier = 0.5;
  try {
    (void)service.submit(shrinking);
    FAIL() << "shrinking retry multiplier accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("retry.multiplier"),
              std::string::npos)
        << e.what();
  }
  SolveRequest zero_attempts = quick_request(1);
  zero_attempts.retry.max_attempts = 0;
  EXPECT_THROW((void)service.submit(zero_attempts), std::invalid_argument);
  SolveRequest wild_jitter = quick_request(1);
  wild_jitter.retry.jitter = 2.0;
  EXPECT_THROW((void)service.submit(wild_jitter), std::invalid_argument);
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, LanesRunStrongestFirstUnderABudgetOfOne) {
  SolverService service(SolverService::Options{1});
  StartLog log;
  // A high blocker holds the only slot; nothing is stronger, so nothing
  // preempts it while the other lanes fill up behind it.
  const JobHandle blocker =
      service.submit(endless_request(1), Priority::kHigh, log.track(0));
  ASSERT_TRUE(log.wait_started(0));
  std::vector<JobHandle> jobs;
  jobs.push_back(service.submit(tiny_request(2), Priority::kLow, log.track(1)));
  jobs.push_back(
      service.submit(tiny_request(3), Priority::kNormal, log.track(2)));
  jobs.push_back(service.submit(tiny_request(4), Priority::kLow, log.track(3)));
  jobs.push_back(
      service.submit(tiny_request(5), Priority::kHigh, log.track(4)));
  jobs.push_back(
      service.submit(tiny_request(6), Priority::kNormal, log.track(5)));
  EXPECT_EQ(service.stats().queued,
            (std::array<std::size_t, kNumLanes>{1, 2, 2}));

  EXPECT_TRUE(blocker.cancel());
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
    EXPECT_EQ(job.status(), JobStatus::kDone);
  }
  // Strongest lane first, FIFO within a lane: the late high job and both
  // normals overtake the earlier lows.
  EXPECT_EQ(log.order(), (std::vector<int>{0, 4, 2, 5, 1, 3}));
  EXPECT_EQ(service.stats().preempted, 0u);
}

TEST(SolverService, AFullLaneThrowsBeforeAnyCallbackFires) {
  SolverService service(
      SolverService::Options{.thread_budget = 1, .max_lane_depth = 1});
  const JobHandle blocker =
      service.submit(endless_request(1), Priority::kHigh, JobCallbacks{});
  const JobHandle queued =
      service.submit(tiny_request(2), Priority::kNormal, JobCallbacks{});

  std::atomic<int> fired{0};
  JobCallbacks counting;
  counting.on_accepted = [&](std::uint64_t) { ++fired; };
  counting.sample_period = 1;
  counting.on_sample = [&](std::size_t, std::uint64_t, csp::Cost) {
    ++fired;
  };
  counting.on_preempted = [&] { ++fired; };
  counting.on_done = [&](JobStatus, const SolveReport&, std::string_view) {
    ++fired;
  };
  EXPECT_THROW(
      (void)service.submit(tiny_request(3), Priority::kNormal, counting),
      OverloadedError);
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().submitted, 2u);

  // The transports' pre-check counts the same way; another lane admits.
  EXPECT_TRUE(service.reject_overloaded(Priority::kNormal));
  EXPECT_FALSE(service.reject_overloaded(Priority::kLow));
  EXPECT_EQ(service.stats().rejected, 2u);

  // Draining the lane readmits.
  EXPECT_TRUE(queued.cancel());
  const JobHandle admitted =
      service.submit(tiny_request(4), Priority::kNormal, counting);
  EXPECT_EQ(fired.load(), 1);  // accepted
  EXPECT_TRUE(blocker.cancel());
  EXPECT_TRUE(admitted.wait().solved);
}

TEST(SolverService, DoneFiresOnceAfterTheTerminalStatusOutsideTheLock) {
  SolverService service(SolverService::Options{1});
  std::mutex m;
  std::map<std::string, JobHandle> handles;
  std::vector<std::string> calls;
  const auto watch = [&](const std::string& name) {
    JobCallbacks callbacks;
    callbacks.on_done = [&, name](JobStatus status, const SolveReport& report,
                                  std::string_view) {
      // Calling back into the service would deadlock under its lock.
      const std::size_t pending = service.pending_jobs();
      std::lock_guard lock(m);
      calls.push_back(name);
      const JobHandle& handle = handles.at(name);
      EXPECT_TRUE(is_terminal(status));
      EXPECT_EQ(handle.status(), status);
      EXPECT_EQ(&handle.report(), &report);
      EXPECT_LT(pending, handles.size());  // no longer counted as pending
    };
    return callbacks;
  };

  {
    // Each job sits behind the high blocker until its handle is stored.
    std::lock_guard lock(m);
    handles["blocker"] =
        service.submit(endless_request(1), Priority::kHigh, watch("blocker"));
    handles["done"] =
        service.submit(tiny_request(2), Priority::kNormal, watch("done"));
    handles["queued"] =
        service.submit(tiny_request(3), Priority::kNormal, watch("queued"));
  }
  EXPECT_TRUE(handles.at("queued").cancel());  // finishes on this thread
  EXPECT_TRUE(handles.at("blocker").cancel());
  EXPECT_TRUE(handles.at("done").wait().solved);
  service.shutdown();  // joins the workers: nothing can still fire

  std::lock_guard lock(m);
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, (std::vector<std::string>{"blocker", "done", "queued"}));
  EXPECT_EQ(handles.at("blocker").status(), JobStatus::kCancelled);
  EXPECT_EQ(handles.at("queued").status(), JobStatus::kCancelled);
}

TEST(SolverService, PreemptedJobResumesToTheUninterruptedReport) {
  // Byte-identity through the engine's preemption: a fixed-budget low job
  // suspended for a high arrival and resumed from its checkpoint reports
  // exactly what the uninterrupted Solver::solve reports (timing fields
  // aside).
  SolveRequest low = endless_request(77);
  low.scheduling = parallel::Scheduling::kSequential;
  low.params->restart_limit = 1'000'000;
  const SolveReport direct = Solver::solve(low);

  SolverService service(SolverService::Options{1});
  StartLog log;
  std::atomic<int> preempted{0};
  JobCallbacks low_callbacks = log.track(0);
  low_callbacks.on_preempted = [&] { ++preempted; };
  const JobHandle low_job =
      service.submit(low, Priority::kLow, std::move(low_callbacks));
  ASSERT_TRUE(log.wait_started(0));
  const JobHandle high =
      service.submit(tiny_request(5), Priority::kHigh, log.track(1));

  // Under a budget of one the high job can only finish first if the low
  // job gave up its slot.
  EXPECT_TRUE(high.wait().solved);
  SolveReport resumed = low_job.wait();
  EXPECT_EQ(preempted.load(), 1);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(stats.resumed, 1u);
  EXPECT_EQ(log.order(), (std::vector<int>{0, 1}));

  SolveReport expected = direct;
  for (SolveReport* report : {&resumed, &expected}) {
    report->wall_seconds = 0.0;
    report->time_to_solution_seconds = 0.0;
    for (WalkerReport& walker : report->walkers) walker.seconds = 0.0;
  }
  EXPECT_EQ(resumed.to_json_string(), expected.to_json_string());
}

}  // namespace
}  // namespace cspls::api
