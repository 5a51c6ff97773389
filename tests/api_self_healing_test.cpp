// Self-healing SolverService: retry with seeded exponential backoff after
// wholesale attempt crashes, watchdog-driven degradation of stalled jobs,
// warm-start reseeding, the kRetrying/kDegraded taxonomy and the JSON wire
// format of every new request/report member.  Fault-schedule scenarios skip
// without -DCSPLS_FAULT_INJECTION=ON; validation, warm-start and JSON
// tests run in every build.
#include "api/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
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

TEST(SelfHealing, WatchdogDegradesAStalledJobInsteadOfHanging) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  SolverService service(SolverService::Options{2});
  // Unsolvable instance, every walker wedged for 1 s early in the walk: the
  // only ways out are the watchdog or an hours-long budget.
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 2;
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

  const JobHandle job = service.submit(request);
  // Two wedged attempts of ~1 s each; anything near the langford budget
  // would take hours, so finishing here at all is the watchdog working.
  ASSERT_TRUE(job.wait_for(milliseconds(120'000)));
  EXPECT_EQ(job.status(), JobStatus::kDone);  // anytime contract
  const SolveReport& report = job.report();
  EXPECT_TRUE(report.degraded);       // retried with half the walkers
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_FALSE(report.cancelled);     // a watchdog cut is not a user cancel
  EXPECT_FALSE(report.solved);
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
  try {
    (void)Solver::solve(request);
    FAIL() << "mismatched warm start accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warm_start"), std::string::npos);
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
