// Self-healing SolverService: retry with seeded exponential backoff after
// wholesale attempt crashes, watchdog-driven degradation of stalled jobs,
// warm-start reseeding, the kRetrying/kDegraded taxonomy and the JSON wire
// format of every new request/report member.  Fault-schedule scenarios skip
// without -DCSPLS_FAULT_INJECTION=ON; validation, warm-start and JSON
// tests run in every build.
#include "api/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace cspls::api {
namespace {

using std::chrono::milliseconds;
using util::fault::FaultPlan;
using util::fault::Kind;
using util::fault::Site;

SolveRequest quick_request(std::uint64_t seed) {
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kFirstFinisher;
  return request;
}

FaultPlan dispatch_crash(std::uint64_t attempt) {
  FaultPlan plan;
  plan.site = Site::kServiceDispatch;
  plan.at_count = attempt;  // the dispatch session spans the whole job, so
  plan.kind = Kind::kThrow;  // at_count = n fires on the n-th attempt
  return plan;
}

/// Solver::solve must throw std::invalid_argument whose message names
/// `member`.
void expect_rejected(const SolveRequest& request, std::string_view member) {
  try {
    (void)Solver::solve(request);
    ADD_FAILURE() << member << ": hostile configuration accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
        << e.what();
  }
}

TEST(SelfHealing, RetriesCrashedAttemptsAndSucceeds) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  SolverService service(SolverService::Options{2});
  SolveRequest request = quick_request(17);
  request.faults = {dispatch_crash(1), dispatch_crash(2)};
  request.retry.max_attempts = 3;
  request.retry.base_backoff_ms = 1;

  const JobHandle job = service.submit(request);
  const SolveReport& report = job.wait();  // attempts 1+2 crash, 3 solves
  EXPECT_EQ(job.status(), JobStatus::kDone);
  EXPECT_TRUE(report.solved);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(job.error().empty());
}

TEST(SelfHealing, ExhaustedRetriesResolveAsFailedNotAsAHang) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  SolverService service(SolverService::Options{2});
  SolveRequest request = quick_request(18);
  request.faults = {dispatch_crash(1), dispatch_crash(2)};
  request.retry.max_attempts = 2;
  request.retry.base_backoff_ms = 1;

  const JobHandle job = service.submit(request);
  ASSERT_TRUE(job.wait_for(milliseconds(60'000)));
  EXPECT_EQ(job.status(), JobStatus::kFailed);
  EXPECT_THROW((void)job.wait(), std::runtime_error);
  EXPECT_NE(job.error().find("injected fault"), std::string::npos);
  EXPECT_EQ(job.report().attempts, 2u);  // structured view, no rethrow

  // A failed job never poisons the service: the lease was refunded.
  EXPECT_TRUE(service.submit(quick_request(19)).wait().solved);
}

TEST(SelfHealing, AllWalkersCrashingIsRetriedWithBackoffAndResolves) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  // The ISSUE's acceptance scenario: every walker of every attempt crashes;
  // with max_attempts = 3 the service retries with exponential backoff and
  // resolves the job — without hanging and without terminating the process.
  SolverService service(SolverService::Options{2});
  SolveRequest request = quick_request(23);
  FaultPlan kill_all;
  kill_all.site = Site::kWalkerIteration;
  kill_all.walker = util::fault::kAnyWalker;
  kill_all.at_count = 1;
  kill_all.kind = Kind::kThrow;
  request.faults = {kill_all};
  request.retry.max_attempts = 3;
  request.retry.base_backoff_ms = 1;
  request.retry.multiplier = 2.0;
  request.retry.jitter = 0.5;

  const JobHandle job = service.submit(request);
  ASSERT_TRUE(job.wait_for(milliseconds(120'000)));
  EXPECT_EQ(job.status(), JobStatus::kFailed);
  const SolveReport& report = job.report();
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(report.failed_walkers, report.walkers.size());
  for (const WalkerReport& walker : report.walkers) {
    EXPECT_TRUE(walker.failed);
    EXPECT_NE(walker.error.find("injected fault"), std::string::npos);
  }
  EXPECT_NE(job.error().find("walkers failed"), std::string::npos);
}

/// Unsolvable instance, every walker wedged for 1 s early in the walk: the
/// only ways out are the watchdog or an hours-long budget.
SolveRequest wedged_request(std::size_t walkers) {
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = walkers;
  request.seed = 31;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 100'000'000;
  params.max_restarts = 0;
  request.params = params;
  FaultPlan wedge;
  wedge.site = Site::kWalkerIteration;
  wedge.walker = util::fault::kAnyWalker;
  wedge.at_count = 2;
  wedge.kind = Kind::kStall;
  wedge.stall_ms = 1'000;
  request.faults = {wedge};
  request.watchdog_stall_ms = 100;
  request.retry.max_attempts = 2;
  request.retry.base_backoff_ms = 1;
  return request;
}

TEST(SelfHealing, WatchdogDegradesAStalledJobInsteadOfHanging) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  // Two walkers on two slots all start at once; three walkers on two slots
  // leave one unstarted when the watchdog fires, and the start gate must
  // record the cut as the watchdog's, not as a caller cancel.
  for (const std::size_t walkers : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(walkers) + " walkers");
    SolverService service(SolverService::Options{2});
    const JobHandle job = service.submit(wedged_request(walkers));
    // Two wedged attempts of ~1 s each; anything near the langford budget
    // would take hours, so finishing here at all is the watchdog working.
    ASSERT_TRUE(job.wait_for(milliseconds(120'000)));
    EXPECT_EQ(job.status(), JobStatus::kDone);  // anytime contract
    const SolveReport& report = job.report();
    EXPECT_TRUE(report.degraded);    // retried with half the walkers
    EXPECT_EQ(report.attempts, 2u);
    EXPECT_FALSE(report.cancelled);  // a watchdog cut is not a user cancel
    EXPECT_FALSE(report.solved);
  }
}

// --- Every-build coverage ---------------------------------------------

TEST(SelfHealing, WarmStartSeedsTheFirstWalk) {
  SolveRequest request = quick_request(41);
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  request.walkers = 1;
  const SolveReport cold = Solver::solve(request);
  ASSERT_TRUE(cold.solved);

  // Warm-starting from a solution: the engine adopts it after the (stream-
  // position-preserving) randomize and finds cost 0 before iterating.
  request.warm_start = cold.solution;
  const SolveReport warm = Solver::solve(request);
  EXPECT_TRUE(warm.solved);
  EXPECT_EQ(warm.total_iterations, 0u);
  EXPECT_EQ(warm.solution, cold.solution);
}

TEST(SelfHealing, WarmStartSizeMismatchIsRejected) {
  SolveRequest request = quick_request(42);
  request.warm_start = std::vector<int>{1, 2, 3};  // costas:9 has 9 vars
  expect_rejected(request, "warm_start");
}

// A configuration from the client reaches a kernel only as a permutation
// of the instance's values.  A value outside them used to index the costas
// tables out of bounds; a repeated one walked a space without a solution.
TEST(SelfHealing, HostileWarmStartsRejectNamingTheMember) {
  SolveRequest request = quick_request(43);  // costas:9
  request.warm_start = std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 90};
  expect_rejected(request, "warm_start");
  request.warm_start = std::vector<int>(9, 1);
  expect_rejected(request, "warm_start");
}

TEST(SelfHealing, HostileResumeConfigurationsRejectNamingTheMember) {
  using Stage = parallel::PoolCheckpoint::WalkerStage;
  const std::vector<int> identity{1, 2, 3, 4, 5, 6, 7, 8, 9};
  SolveRequest request = quick_request(44);  // costas:9, two walkers
  request.resume_from = parallel::PoolCheckpoint{
      .walkers = {{.stage = Stage::kRunning,
                   .checkpoint = {.values = identity, .best = identity,
                                  .tabu_until = {0, 0, 0, 0, 0, 0, 0, 0, 0},
                                  .rng_state = {1, 2, 3, 4}, .stats = {}},
                   .result = {}},
                  {}},  // kPending
      .elite = {}};
  core::Checkpoint& running = request.resume_from->walkers[0].checkpoint;
  running.values.back() = 90;
  expect_rejected(request, "walkers[0].checkpoint.values");
  running.values = identity;
  running.best.back() = 1;
  expect_rejected(request, "walkers[0].checkpoint.best");
  // An all-zero state is no xoshiro256** position: the engine would walk
  // the default stream instead of the captured one.
  running.best = identity;
  running.rng_state = {0, 0, 0, 0};
  expect_rejected(request, "walkers[0].checkpoint.rng_state");

  // An occupied elite slot is adopted under exchange: it is checked too.
  request.neighborhood = parallel::Neighborhood::kComplete;
  request.exchange = parallel::Exchange::kElite;
  request.resume_from->walkers[0] = {};
  request.resume_from->elite = {
      {.has_entry = true, .values = {1, 2, 3, 4, 5, 6, 7, 8, -9}}};
  expect_rejected(request, "elite[0].values");
  // A permutation is not enough: the slot's cost must be its cost.
  request.resume_from->elite[0].values = identity;
  request.resume_from->elite[0].cost = 0;
  expect_rejected(request, "elite[0].cost");

  // Costs of a genuinely captured checkpoint: walker 0 of a sequential pool
  // on an unsolvable instance, preempted mid-walk; walker 1 never started.
  request = SolveRequest{};
  request.problem = "langford:5";
  request.walkers = 2;
  request.seed = 42;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  request.params = core::Params{};
  request.params->restart_limit = 1'500;  // a bounded walk
  request.params->max_restarts = 1;
  std::atomic<bool> preempt{false};
  std::optional<parallel::PoolCheckpoint> checkpoint;
  SolveCallbacks callbacks;
  callbacks.preempt = &preempt;
  callbacks.checkpoint_out = &checkpoint;
  callbacks.sample_period = 16;
  callbacks.sample_sink = [&](std::size_t, std::uint64_t iteration,
                              csp::Cost) {
    if (iteration >= 64) preempt.store(true, std::memory_order_relaxed);
  };
  (void)Solver::solve(request, core::StopToken{}, callbacks);
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_EQ(checkpoint->walkers[0].stage,
            parallel::PoolCheckpoint::WalkerStage::kRunning);
  request.resume_from = checkpoint;
  EXPECT_FALSE(Solver::solve(request).solved);  // as captured: accepted

  // A lowered best would have the report claim a solve of langford:5.
  core::Checkpoint& captured = request.resume_from->walkers[0].checkpoint;
  ASSERT_GT(captured.best_cost, 0);
  captured.best_cost = 0;
  expect_rejected(request, "walkers[0].checkpoint.best_cost");
  captured.best_cost = checkpoint->walkers[0].checkpoint.best_cost;
  captured.cost += 1;
  expect_rejected(request, "walkers[0].checkpoint.cost");
  captured.cost -= 1;
  // The engine sets a tabu clock to at most the iteration plus the longest
  // freeze (here freeze_loc_min 5, freeze_swap 0): one past it is a lie.
  captured.tabu_until[2] = captured.stats.iterations + 6;
  expect_rejected(request, "walkers[0].checkpoint.tabu_until");
  captured.tabu_until = checkpoint->walkers[0].checkpoint.tabu_until;

  // A finished walker is replayed verbatim, so its result is checked too:
  // a solution that does not cost what it says, a cost that does not
  // solve, and a solve with no solution.
  parallel::PoolCheckpoint::WalkerEntry& done =
      request.resume_from->walkers[1];
  done.stage = parallel::PoolCheckpoint::WalkerStage::kDone;
  done.result.solution = captured.best;
  done.result.cost = 0;
  done.result.solved = true;
  expect_rejected(request, "walkers[1].result");
  done.result.cost = captured.best_cost;
  expect_rejected(request, "walkers[1].result");
  done.result.solution.clear();
  expect_rejected(request, "walkers[1].result");
}

TEST(SelfHealing, HugeBackoffsSaturateInsteadOfVanishing) {
  // Every attempt throws (the warm start is no permutation), so each job
  // backs off after its first failures.  A backoff past any clock's range
  // must saturate, not wrap to an immediate retry.
  SolverService service(SolverService::Options{2});
  SolveRequest huge_base = quick_request(61);
  huge_base.walkers = 1;  // one lease each: a backing-off job keeps its own
  huge_base.warm_start = std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 90};
  huge_base.retry.max_attempts = 2;
  huge_base.retry.base_backoff_ms = std::numeric_limits<std::uint64_t>::max();
  SolveRequest huge_multiplier = huge_base;
  huge_multiplier.retry.max_attempts = 3;
  huge_multiplier.retry.base_backoff_ms = 1;
  huge_multiplier.retry.multiplier = 1e300;

  const std::vector<JobHandle> jobs{service.submit(huge_base),
                                    service.submit(huge_multiplier)};
  std::this_thread::sleep_for(milliseconds(300));
  for (const JobHandle& job : jobs) {
    EXPECT_EQ(job.status(), JobStatus::kRetrying) << job.error();
  }
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.cancel());
    ASSERT_TRUE(job.wait_for(milliseconds(10'000)));
    EXPECT_EQ(job.status(), JobStatus::kCancelled);
  }
}

TEST(SelfHealing, RetryPolicyIsValidated) {
  SolveRequest zero_attempts = quick_request(1);
  zero_attempts.retry.max_attempts = 0;
  EXPECT_THROW((void)Solver::solve(zero_attempts), std::invalid_argument);
  SolveRequest shrinking = quick_request(1);
  shrinking.retry.multiplier = 0.5;
  EXPECT_THROW((void)Solver::solve(shrinking), std::invalid_argument);
  SolveRequest wild_jitter = quick_request(1);
  wild_jitter.retry.jitter = 2.0;
  EXPECT_THROW((void)Solver::solve(wild_jitter), std::invalid_argument);
}

TEST(SelfHealing, StatusTaxonomyNamesTheHealingStates) {
  EXPECT_EQ(name_of(JobStatus::kRetrying), "retrying");
  EXPECT_EQ(name_of(JobStatus::kDegraded), "degraded");
  EXPECT_FALSE(is_terminal(JobStatus::kRetrying));
  EXPECT_FALSE(is_terminal(JobStatus::kDegraded));
}

TEST(SelfHealing, ReportAccessorThrowsWhileTheJobIsLive) {
  SolverService service(SolverService::Options{1});
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 1;
  request.seed = 2;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 100'000'000;
  params.max_restarts = 0;
  request.params = params;
  const JobHandle job = service.submit(request);
  EXPECT_THROW((void)job.report(), std::logic_error);
  EXPECT_TRUE(job.cancel());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_TRUE(job.report().cancelled);  // terminal: structured view works
}

TEST(SelfHealingJson, RequestMembersRoundTrip) {
  SolveRequest request = quick_request(7);
  request.retry.max_attempts = 4;
  request.retry.base_backoff_ms = 25;
  request.retry.multiplier = 3.0;
  request.retry.jitter = 0.25;
  request.watchdog_stall_ms = 500;
  request.warm_start = std::vector<int>{3, 1, 4, 1, 5, 9, 2, 6, 8};
  FaultPlan plan;
  plan.site = Site::kElitePublish;
  plan.walker = 1;
  plan.at_count = 9;
  plan.kind = Kind::kStall;
  plan.stall_ms = 7;
  request.faults = {plan, dispatch_crash(2)};

  const std::string encoded = request.to_json_string();
  const SolveRequest decoded = SolveRequest::from_json_string(encoded);
  EXPECT_EQ(decoded.retry.max_attempts, 4u);
  EXPECT_EQ(decoded.retry.base_backoff_ms, 25u);
  EXPECT_DOUBLE_EQ(decoded.retry.multiplier, 3.0);
  EXPECT_DOUBLE_EQ(decoded.retry.jitter, 0.25);
  EXPECT_EQ(decoded.watchdog_stall_ms, 500u);
  ASSERT_TRUE(decoded.warm_start.has_value());
  EXPECT_EQ(decoded.warm_start, request.warm_start);
  ASSERT_EQ(decoded.faults.size(), 2u);
  EXPECT_EQ(decoded.faults[0], plan);
  EXPECT_EQ(decoded.faults[1], request.faults[1]);
  // Deterministic dump: a decode/encode cycle is the identity.
  EXPECT_EQ(decoded.to_json_string(), encoded);
}

TEST(SelfHealingJson, RequestParsingStaysStrict) {
  EXPECT_THROW((void)SolveRequest::from_json_string(
                   R"({"problem":"costas:9","retry":{"max_attempts":0}})"),
               std::invalid_argument);
  EXPECT_THROW((void)SolveRequest::from_json_string(
                   R"({"problem":"costas:9","retry":{"attempts":2}})"),
               std::invalid_argument);  // unknown retry member
  EXPECT_THROW(
      (void)SolveRequest::from_json_string(
          R"({"problem":"costas:9","faults":[{"site":"nowhere"}]})"),
      std::invalid_argument);
  EXPECT_THROW((void)SolveRequest::from_json_string(
                   R"({"problem":"costas:9","faults":[{}]})"),
               std::invalid_argument);  // missing site
}

TEST(SelfHealingJson, FailureDetailsRoundTripThroughTheReport) {
  SolveReport report;
  report.problem = "costas:9";
  report.solved = false;
  report.failed_walkers = 1;
  report.attempts = 2;
  report.degraded = true;
  WalkerReport dead;
  dead.id = 0;
  dead.failed = true;
  dead.error = "injected fault: throw at walker_iteration count 1 (walker 0)";
  WalkerReport alive;
  alive.id = 1;
  alive.solved = false;
  alive.cost = 3;
  report.walkers = {dead, alive};

  const std::string encoded = report.to_json_string();
  const SolveReport decoded = SolveReport::from_json_string(encoded);
  EXPECT_EQ(decoded.failed_walkers, 1u);
  EXPECT_EQ(decoded.attempts, 2u);
  EXPECT_TRUE(decoded.degraded);
  ASSERT_EQ(decoded.walkers.size(), 2u);
  EXPECT_TRUE(decoded.walkers[0].failed);
  EXPECT_EQ(decoded.walkers[0].error, dead.error);
  EXPECT_FALSE(decoded.walkers[1].failed);
  EXPECT_TRUE(decoded.walkers[1].error.empty());
  EXPECT_EQ(decoded.to_json_string(), encoded);
}

}  // namespace
}  // namespace cspls::api
