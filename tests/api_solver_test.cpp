// api::SolveRequest/SolveReport JSON round trips, the Solver façade's
// byte-identity with direct WalkerPool runs, and deadline/cancel semantics
// under every Scheduling policy.
#include "api/solver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/params.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/registry.hpp"
#include "util/timer.hpp"

namespace cspls::api {
namespace {

SolveRequest unsolvable_request(parallel::Scheduling scheduling) {
  // Langford n=5 has no solution; a huge budget means only an external
  // stop (deadline/cancel) can end the run in test time.
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 3;
  request.seed = 11;
  request.scheduling = scheduling;
  request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 100'000'000;
  params.max_restarts = 0;
  request.params = params;
  return request;
}

TEST(SolveRequestJson, EncodeDecodeEncodeIsByteStable) {
  SolveRequest request;
  request.problem = "perfect-square:8@7";
  request.walkers = 16;
  request.seed = 0xFFFFFFFFFFFFFFFFULL;  // full 64-bit seeds must survive
  request.scheduling = parallel::Scheduling::kSequential;
  request.neighborhood = parallel::Neighborhood::kTorus;
  request.exchange = parallel::Exchange::kDecayElite;
  request.comm_mode = parallel::CommMode::kAsync;
  request.termination = parallel::Termination::kBestAfterBudget;
  request.comm_period = 250;
  request.comm_adopt_probability = 0.75;
  request.comm_decay = 16;
  request.max_threads = 8;
  request.deadline_ms = 1500;
  core::Params params;
  params.target_cost = 2;
  params.restart_limit = 12345;
  params.restart_schedule = core::RestartSchedule::kLuby;
  params.max_restarts = 3;
  params.freeze_loc_min = 4;
  params.freeze_swap = 2;
  params.reset_limit = 9;
  params.reset_fraction = 0.25;
  params.prob_accept_plateau = 0.5;
  params.prob_accept_local_min = 0.125;
  request.params = params;

  const std::string encoded = request.to_json_string();
  const SolveRequest decoded = SolveRequest::from_json_string(encoded);
  EXPECT_EQ(decoded, request);
  EXPECT_EQ(decoded.to_json_string(), encoded);
  // Pretty-printed form decodes to the same value.
  EXPECT_EQ(SolveRequest::from_json_string(request.to_json_string(2)),
            request);
}

TEST(SolveRequestJson, DefaultsApplyAndBadDocumentsAreNamed) {
  const SolveRequest minimal =
      SolveRequest::from_json_string(R"({"problem":"costas:10"})");
  EXPECT_EQ(minimal.problem, "costas:10");
  EXPECT_EQ(minimal.walkers, SolveRequest{}.walkers);
  EXPECT_EQ(minimal.scheduling, parallel::Scheduling::kThreads);
  EXPECT_FALSE(minimal.params.has_value());

  EXPECT_THROW((void)SolveRequest::from_json_string("[]"),
               std::invalid_argument);
  EXPECT_THROW((void)SolveRequest::from_json_string("{"),
               std::invalid_argument);
  EXPECT_THROW((void)SolveRequest::from_json_string(R"({"problem":""})"),
               std::invalid_argument);
  try {
    (void)SolveRequest::from_json_string(
        R"({"problem":"costas:10","scheduling":"warp-drive"})");
    FAIL() << "unknown policy name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("scheduling"), std::string::npos) << message;
    EXPECT_NE(message.find("sequential"), std::string::npos) << message;
  }
  try {
    (void)SolveRequest::from_json_string(
        R"({"problem":"costas:10","seed":"not-a-number"})");
    FAIL() << "bad seed accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
}

TEST(SolveRequestJson, UnknownMembersAreRejectedNotIgnored) {
  // A misspelled key silently degrading to a default (e.g. "deadline-ms"
  // leaving the job unbounded) is the classic wire-format trap.
  try {
    (void)SolveRequest::from_json_string(
        R"({"problem":"costas:10","deadline-ms":5000})");
    FAIL() << "misspelled member accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("deadline-ms"), std::string::npos);
  }
  EXPECT_THROW((void)SolveRequest::from_json_string(
                   R"({"problem":"costas:10","params":{"restartlimit":5}})"),
               std::invalid_argument);
  EXPECT_THROW((void)SolveReport::from_json_string(
                   R"({"winner":-1,"cost":0,"bogus":1})"),
               std::invalid_argument);
}

TEST(SolveReportJson, EncodeDecodeEncodeIsByteStable) {
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 3;
  request.seed = 5;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  const SolveReport report = Solver::solve(request);
  ASSERT_EQ(report.walkers.size(), 3u);

  const std::string encoded = report.to_json_string();
  const SolveReport decoded = SolveReport::from_json_string(encoded);
  EXPECT_EQ(decoded, report);
  EXPECT_EQ(decoded.to_json_string(), encoded);
}

TEST(SolveRequestJson, ResumeFromRoundTripsAndExcludesWarmStart) {
  // Capture a real checkpoint by preempting a small pool run, then carry it
  // through the request's wire form.  Langford n=5 has no solution, so a
  // hard iteration budget makes the walk length fixed and the preempt trip
  // always lands mid-run.
  const auto problem = problems::make_problem("langford", 5);
  core::Params params =
      core::Params::from_hints(problem->tuning(), problem->num_variables());
  params.restart_limit = 1'500;
  params.max_restarts = 1;

  parallel::WalkerPoolOptions pool;
  pool.num_walkers = 2;
  pool.master_seed = 42;
  pool.scheduling = parallel::Scheduling::kSequential;
  pool.termination = parallel::Termination::kBestAfterBudget;
  pool.params = params;
  std::atomic<bool> preempt{false};
  std::optional<parallel::PoolCheckpoint> checkpoint;
  pool.preempt = &preempt;
  pool.checkpoint_out = &checkpoint;
  pool.sample_sink_period = 16;
  pool.sample_sink = [&](std::size_t, std::uint64_t iteration, csp::Cost) {
    if (iteration >= 64) preempt.store(true, std::memory_order_relaxed);
  };
  (void)parallel::WalkerPool(pool).run(*problem);
  ASSERT_TRUE(checkpoint.has_value());

  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 2;
  request.seed = 42;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  request.params = params;
  request.resume_from = checkpoint;

  const std::string encoded = request.to_json_string();
  const SolveRequest decoded = SolveRequest::from_json_string(encoded);
  EXPECT_EQ(decoded, request);
  EXPECT_EQ(decoded.to_json_string(), encoded);

  // Resuming the wire-decoded request completes the original solve.
  const SolveReport direct = Solver::solve([&] {
    SolveRequest plain = request;
    plain.resume_from.reset();
    return plain;
  }());
  const SolveReport resumed = Solver::solve(decoded);
  EXPECT_EQ(resumed.solved, direct.solved);
  EXPECT_EQ(resumed.winner, direct.winner);
  EXPECT_EQ(resumed.cost, direct.cost);
  EXPECT_EQ(resumed.solution, direct.solution);
  EXPECT_EQ(resumed.total_iterations, direct.total_iterations);

  // A checkpoint already fixes every walker's configuration: combining it
  // with warm_start is contradictory and rejects, naming the member.
  util::Json conflicted = *util::Json::parse(encoded);
  util::Json values = util::Json::array();
  for (int i = 0; i < 10; ++i) values.push_back(i);
  conflicted.set("warm_start", std::move(values));
  try {
    (void)SolveRequest::from_json_string(conflicted.dump(0));
    FAIL() << "resume_from + warm_start accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resume_from"), std::string::npos);
  }

  // A malformed embedded checkpoint rejects, naming the member.
  EXPECT_THROW(
      (void)SolveRequest::from_json_string(
          R"({"problem":"costas:9","resume_from":{"schema":"nope"}})"),
      std::invalid_argument);
}

TEST(SolveReportJson, PreemptedFlagCrossesTheWire) {
  SolveReport report;
  report.problem = "costas:9";
  report.preempted = true;
  const SolveReport decoded =
      SolveReport::from_json_string(report.to_json_string());
  EXPECT_TRUE(decoded.preempted);
  EXPECT_EQ(decoded, report);
}

TEST(SolveReportJson, NoWinnerCrossesTheWireAsMinusOne) {
  SolveReport report;
  report.problem = "langford:5";
  EXPECT_FALSE(report.has_winner());
  const SolveReport decoded =
      SolveReport::from_json_string(report.to_json_string());
  EXPECT_EQ(decoded.winner, parallel::kNoWinner);
  EXPECT_FALSE(decoded.has_winner());
}

TEST(SolveRequestJson, CommModeDefaultsToOnResetAndRoundTrips) {
  // Absent member = the historical restart-time semantics.
  const SolveRequest minimal =
      SolveRequest::from_json_string(R"({"problem":"costas:10"})");
  EXPECT_EQ(minimal.comm_mode, parallel::CommMode::kOnReset);
  EXPECT_NE(minimal.to_json_string().find("\"comm_mode\":\"on_reset\""),
            std::string::npos);

  // The async spelling decodes, re-encodes byte-stably and survives the
  // value round trip.
  const SolveRequest async = SolveRequest::from_json_string(
      R"({"problem":"costas:10","neighborhood":"ring","exchange":"elite",)"
      R"("comm_mode":"async"})");
  EXPECT_EQ(async.comm_mode, parallel::CommMode::kAsync);
  const std::string encoded = async.to_json_string();
  EXPECT_EQ(SolveRequest::from_json_string(encoded).to_json_string(),
            encoded);

  // Unknown mode names are rejected with the valid alternatives attached.
  try {
    (void)SolveRequest::from_json_string(
        R"({"problem":"costas:10","comm_mode":"psychic"})");
    FAIL() << "unknown comm_mode accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("comm_mode"), std::string::npos) << message;
    EXPECT_NE(message.find("async"), std::string::npos) << message;
  }
}

TEST(Solver, AsyncGossipWithoutExchangeIsARejectedRequest) {
  SolveRequest request;
  request.problem = "costas:10";
  request.comm_mode = parallel::CommMode::kAsync;  // exchange stays "none"
  try {
    (void)Solver::solve(request);
    FAIL() << "async x none accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos)
        << e.what();
  }
}

TEST(Solver, AsyncGossipRequestSolvesAndCountsAdoptions) {
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 4;
  request.seed = 7;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  // Ring, not complete: per-walker slots mean walkers > 0 genuinely pull
  // their predecessor's recorded best mid-walk (a shared slot would mostly
  // hold the walker's own publication, which the gossip gate refuses).
  request.neighborhood = parallel::Neighborhood::kRing;
  request.exchange = parallel::Exchange::kElite;
  request.comm_mode = parallel::CommMode::kAsync;
  request.comm_period = 50;
  request.comm_adopt_probability = 1.0;
  const SolveReport report = Solver::solve(request);
  EXPECT_TRUE(report.solved);
  // Elite gossip: publishes flow, keep-best offers accept, and mid-walk
  // pulls actually adopted (each later walker starts far above its
  // predecessor's recorded best, so the first gates improve on it).
  EXPECT_GT(report.comm_publishes, 0u);
  EXPECT_GT(report.elite_accepted, 0u);
  EXPECT_GT(report.comm_adoptions, 0u);
  // The counters cross the report wire.
  const SolveReport decoded =
      SolveReport::from_json_string(report.to_json_string());
  EXPECT_EQ(decoded.comm_publishes, report.comm_publishes);
  EXPECT_EQ(decoded.comm_adoptions, report.comm_adoptions);
}

TEST(SolveRequestJson, RetiredAliasMemberIsRejectedAsUnknown) {
  // The pre-neighborhood "topology" alias is gone from the wire: it is an
  // unknown member like any other, whatever its value.
  for (const char* doc :
       {R"({"problem":"costas:10","topology":"ring-elite"})",
        R"({"problem":"costas:10","topology":"independent"})",
        R"({"problem":"costas:10","topology":"ring-elite","exchange":"none"})"}) {
    try {
      (void)SolveRequest::from_json_string(doc);
      FAIL() << "accepted " << doc;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown member \"topology\""),
                std::string::npos)
          << e.what();
    }
  }
  // The encoder speaks the neighborhood x exchange spelling only.
  SolveRequest ring;
  ring.problem = "costas:10";
  ring.neighborhood = parallel::Neighborhood::kRing;
  ring.exchange = parallel::Exchange::kElite;
  EXPECT_EQ(ring.to_json_string().find("topology"), std::string::npos);
  EXPECT_NE(ring.to_json_string().find("\"neighborhood\""), std::string::npos);
  EXPECT_NE(ring.to_json_string().find("\"ring\""), std::string::npos);
}

TEST(Solver, RejectsUnknownProblemsWithTheNameList) {
  SolveRequest request;
  request.problem = "knapsack:10";
  try {
    (void)Solver::solve(request);
    FAIL() << "unknown problem accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const auto& name : problems::problem_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
}

// --- Byte-identity with the direct WalkerPool path ---------------------

void expect_matches_direct_pool(const SolveRequest& request) {
  const auto prototype = problems::make_problem("costas", 10);
  const parallel::MultiWalkReport direct =
      parallel::WalkerPool(request.to_pool_options()).run(*prototype);
  const SolveReport facade = Solver::solve(request);

  EXPECT_EQ(facade.solved, direct.solved);
  EXPECT_EQ(facade.winner, direct.winner);
  EXPECT_EQ(facade.cost, direct.best.cost);
  EXPECT_EQ(facade.solution, direct.best.solution);
  EXPECT_EQ(facade.total_iterations, direct.total_iterations());
  EXPECT_FALSE(facade.cancelled);
  EXPECT_FALSE(facade.deadline_expired);
  ASSERT_EQ(facade.walkers.size(), direct.walkers.size());
  for (std::size_t i = 0; i < direct.walkers.size(); ++i) {
    const auto& d = direct.walkers[i].result;
    const auto& f = facade.walkers[i];
    EXPECT_EQ(f.id, direct.walkers[i].walker_id);
    EXPECT_EQ(f.solved, d.solved) << "walker " << i;
    EXPECT_EQ(f.cost, d.cost) << "walker " << i;
    EXPECT_EQ(f.iterations, d.stats.iterations) << "walker " << i;
    EXPECT_EQ(f.swaps, d.stats.swaps) << "walker " << i;
    EXPECT_EQ(f.resets, d.stats.resets) << "walker " << i;
    EXPECT_EQ(f.cost_evaluations, d.stats.cost_evaluations) << "walker " << i;
  }
}

TEST(SolverIdentity, SequentialBestAfterBudgetMatchesWalkerPool) {
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 5;
  request.seed = 42;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  expect_matches_direct_pool(request);
}

TEST(SolverIdentity, EmulatedRaceMatchesWalkerPool) {
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 5;
  request.seed = 42;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kFirstFinisher;
  expect_matches_direct_pool(request);
}

TEST(SolverIdentity, ThreadedBestAfterBudgetMatchesWalkerPool) {
  // Every walker runs its full budget, so per-walker trajectories are
  // deterministic even on real threads; only wall times vary.
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 4;
  request.seed = 42;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kBestAfterBudget;
  expect_matches_direct_pool(request);
}

// --- Deadlines under every scheduling policy ---------------------------

TEST(SolverDeadline, HonoredUnderAllSchedulingPolicies) {
  for (const auto scheduling :
       {parallel::Scheduling::kThreads, parallel::Scheduling::kSequential}) {
    SolveRequest request = unsolvable_request(scheduling);
    request.deadline_ms = 100;
    util::Stopwatch watch;
    const SolveReport report = Solver::solve(request);
    const double elapsed = watch.elapsed_seconds();
    EXPECT_FALSE(report.solved) << name_of(scheduling);
    EXPECT_TRUE(report.deadline_expired) << name_of(scheduling);
    EXPECT_FALSE(report.cancelled) << name_of(scheduling);
    // The satellite fix: cancelled/deadline-expired runs still report
    // their timings and the best configuration reached.
    EXPECT_GT(report.wall_seconds, 0.0) << name_of(scheduling);
    EXPECT_GT(report.time_to_solution_seconds, 0.0) << name_of(scheduling);
    EXPECT_FALSE(report.solution.empty()) << name_of(scheduling);
    EXPECT_LT(report.cost, csp::kInfiniteCost) << name_of(scheduling);
    // Generous bound — the budget alone would run for hours.
    EXPECT_LT(elapsed, 60.0) << name_of(scheduling);
  }
}

TEST(SolverDeadline, NoDeadlineNeverSetsTheFlag) {
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 2;
  request.seed = 3;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  const SolveReport report = Solver::solve(request);
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.cancelled);
}

TEST(SolverCancel, HonoredUnderAllSchedulingPolicies) {
  for (const auto scheduling :
       {parallel::Scheduling::kThreads, parallel::Scheduling::kSequential}) {
    const SolveRequest request = unsolvable_request(scheduling);
    std::atomic<bool> cancel{false};
    std::thread canceller([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      cancel.store(true);
    });
    util::Stopwatch watch;
    const SolveReport report =
        Solver::solve(request, core::StopToken(&cancel), SolveCallbacks{});
    canceller.join();
    EXPECT_TRUE(report.cancelled) << name_of(scheduling);
    EXPECT_FALSE(report.deadline_expired) << name_of(scheduling);
    EXPECT_FALSE(report.solved) << name_of(scheduling);
    EXPECT_GT(report.wall_seconds, 0.0) << name_of(scheduling);
    EXPECT_GT(report.time_to_solution_seconds, 0.0) << name_of(scheduling);
    EXPECT_LT(watch.elapsed_seconds(), 60.0) << name_of(scheduling);
  }
}

// --- The new communication pairs end to end -----------------------------

TEST(Solver, TorusMigrationRoundTripsAndRunsUnderAllSchedulingModes) {
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 4;
  request.seed = 9;
  request.neighborhood = parallel::Neighborhood::kTorus;
  request.exchange = parallel::Exchange::kMigration;
  request.termination = parallel::Termination::kBestAfterBudget;
  request.comm_period = 50;
  request.comm_adopt_probability = 0.5;

  // The wire spelling survives a round trip byte-stably...
  const std::string encoded = request.to_json_string();
  EXPECT_NE(encoded.find("\"torus\""), std::string::npos);
  EXPECT_NE(encoded.find("\"migration\""), std::string::npos);
  const SolveRequest decoded = SolveRequest::from_json_string(encoded);
  EXPECT_EQ(decoded, request);
  EXPECT_EQ(decoded.to_json_string(), encoded);

  // ...and the decoded request runs under every scheduling policy.
  for (const auto scheduling :
       {parallel::Scheduling::kThreads, parallel::Scheduling::kSequential}) {
    SolveRequest run = decoded;
    run.scheduling = scheduling;
    const SolveReport report = Solver::solve(run);
    EXPECT_TRUE(report.solved) << name_of(scheduling);
    EXPECT_FALSE(report.solution.empty()) << name_of(scheduling);
    EXPECT_EQ(report.walkers.size(), 4u) << name_of(scheduling);
  }
}

TEST(Solver, DegenerateCommunicationOptionsRejectTheRequest) {
  SolveRequest request;
  request.problem = "costas:10";
  request.walkers = 0;
  EXPECT_THROW((void)Solver::solve(request), std::invalid_argument);

  request.walkers = 4;
  request.neighborhood = parallel::Neighborhood::kRing;
  request.exchange = parallel::Exchange::kElite;
  request.comm_period = 0;  // would silently never publish
  EXPECT_THROW((void)Solver::solve(request), std::invalid_argument);

  request.comm_period = 100;
  request.comm_adopt_probability = 2.0;
  EXPECT_THROW((void)Solver::solve(request), std::invalid_argument);

  request.comm_adopt_probability = 0.5;
  request.exchange = parallel::Exchange::kDecayElite;  // decay 0
  EXPECT_THROW((void)Solver::solve(request), std::invalid_argument);
}

TEST(SolverDeadline, MidExchangeInterruptHasExactlyOneCauseAndABest) {
  // Deadline fires while threaded walkers are actively migrating whole
  // configurations: the report must attribute exactly one interrupt cause
  // and still carry a usable best configuration (the anytime contract).
  SolveRequest request = unsolvable_request(parallel::Scheduling::kThreads);
  request.walkers = 4;
  request.neighborhood = parallel::Neighborhood::kTorus;
  request.exchange = parallel::Exchange::kMigration;
  request.comm_period = 10;  // exchange continuously up to the cut-off
  request.comm_adopt_probability = 0.9;
  request.deadline_ms = 150;
  util::Stopwatch watch;
  const SolveReport report = Solver::solve(request);
  EXPECT_FALSE(report.solved);
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_FALSE(report.cancelled);  // exactly one cause, never both
  EXPECT_FALSE(report.solution.empty());
  EXPECT_LT(report.cost, csp::kInfiniteCost);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_LT(watch.elapsed_seconds(), 60.0);
  for (const auto& w : report.walkers) {
    EXPECT_TRUE(w.interrupted) << "walker " << w.id;
  }
}

TEST(SolverCancel, PreRaisedFlagStopsImmediately) {
  std::atomic<bool> cancel{true};
  SolveRequest request =
      unsolvable_request(parallel::Scheduling::kSequential);
  util::Stopwatch watch;
  const SolveReport report =
      Solver::solve(request, core::StopToken(&cancel), SolveCallbacks{});
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.solved);
  EXPECT_LT(watch.elapsed_seconds(), 30.0);
}

}  // namespace
}  // namespace cspls::api
