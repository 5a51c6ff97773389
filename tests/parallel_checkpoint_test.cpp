// parallel::PoolCheckpoint: cooperative preemption of a whole WalkerPool
// run, byte-identical resume under every scheduling mode (independent and
// communicating populations), the strict versioned JSON schema, and the
// checkpoint_capture fault site degrading a torn capture to a plain
// interrupt with no checkpoint.
#include "parallel/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/fault.hpp"

namespace cspls::parallel {
namespace {

/// A fixed, never-solving workload: Langford n=5 has no solution, so with
/// a hard iteration budget every walker runs exactly `restart_limit`
/// iterations — the preempt trip point is always genuinely mid-run and the
/// reference report is deterministic under every scheduling mode.
WalkerPoolOptions base_options(Scheduling scheduling, std::size_t num_walkers,
                               std::uint64_t master_seed) {
  WalkerPoolOptions options;
  options.num_walkers = num_walkers;
  options.master_seed = master_seed;
  options.scheduling = scheduling;
  options.termination = Termination::kBestAfterBudget;
  core::Params params = core::Params::from_hints(
      problems::Langford(5).tuning(), problems::Langford(5).num_variables());
  params.restart_limit = 1'500;
  params.max_restarts = 1;  // one full restart, so restart state resumes too
  options.params = params;
  return options;
}

/// One shared elite blackboard: every walker publishes to and adopts from
/// the same slot, with the default exchange knobs.
CommunicationPolicy shared_elite() {
  return {.neighborhood = Neighborhood::kComplete, .exchange = Exchange::kElite};
}

/// Run the pool with a preempt flag that a walker (`trip_walker` only, when
/// set) trips at ~`preempt_at` iterations, collecting the assembled
/// PoolCheckpoint (when capture succeeded) and the interrupted report.
std::optional<PoolCheckpoint> preempt_run(
    const csp::Problem& prototype, WalkerPoolOptions options,
    std::uint64_t preempt_at, MultiWalkReport* report_out = nullptr,
    std::optional<std::size_t> trip_walker = std::nullopt) {
  std::atomic<bool> preempt{false};
  std::optional<PoolCheckpoint> checkpoint;
  options.preempt = &preempt;
  options.checkpoint_out = &checkpoint;
  options.sample_sink_period = 16;
  options.sample_sink = [&](std::size_t walker, std::uint64_t iteration,
                            csp::Cost) {
    if (iteration >= preempt_at && trip_walker.value_or(walker) == walker) {
      preempt.store(true, std::memory_order_relaxed);
    }
  };
  const MultiWalkReport report = WalkerPool(options).run(prototype);
  if (report_out != nullptr) *report_out = report;
  return checkpoint;
}

void expect_same_walker(const WalkerOutcome& a, const WalkerOutcome& b) {
  EXPECT_EQ(a.result.solved, b.result.solved);
  EXPECT_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.solution, b.result.solution);
  EXPECT_EQ(a.result.interrupted, b.result.interrupted);
  EXPECT_EQ(a.result.stats.iterations, b.result.stats.iterations);
  EXPECT_EQ(a.result.stats.swaps, b.result.stats.swaps);
  EXPECT_EQ(a.result.stats.plateau_moves, b.result.stats.plateau_moves);
  EXPECT_EQ(a.result.stats.local_minima, b.result.stats.local_minima);
  EXPECT_EQ(a.result.stats.resets, b.result.stats.resets);
  EXPECT_EQ(a.result.stats.restarts, b.result.stats.restarts);
}

/// Byte-identity of everything but the wall-clock timing fields.
void expect_same_report(const MultiWalkReport& resumed,
                        const MultiWalkReport& reference) {
  EXPECT_EQ(resumed.solved, reference.solved);
  EXPECT_EQ(resumed.winner, reference.winner);
  EXPECT_EQ(resumed.best.cost, reference.best.cost);
  EXPECT_EQ(resumed.best.solution, reference.best.solution);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.comm_publishes, reference.comm_publishes);
  EXPECT_EQ(resumed.elite_accepted, reference.elite_accepted);
  EXPECT_EQ(resumed.comm_adoptions, reference.comm_adoptions);
  ASSERT_EQ(resumed.walkers.size(), reference.walkers.size());
  for (std::size_t i = 0; i < resumed.walkers.size(); ++i) {
    expect_same_walker(resumed.walkers[i], reference.walkers[i]);
  }
}

TEST(PoolCheckpoint, ResumeIsByteIdenticalUnderEverySchedulingMode) {
  const problems::Langford langford(5);
  for (const Scheduling scheduling :
       {Scheduling::kSequential, Scheduling::kThreads}) {
    const WalkerPoolOptions options = base_options(scheduling, 3, 42);
    const MultiWalkReport reference = WalkerPool(options).run(langford);

    MultiWalkReport interrupted;
    const std::optional<PoolCheckpoint> checkpoint =
        preempt_run(langford, options, 64, &interrupted);
    ASSERT_TRUE(checkpoint.has_value())
        << "scheduling mode " << static_cast<int>(scheduling);
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.interrupt_cause, core::StopCause::kPreempted);
    ASSERT_EQ(checkpoint->walkers.size(), 3u);

    WalkerPoolOptions resume_options = options;
    resume_options.resume = checkpoint;
    expect_same_report(WalkerPool(resume_options).run(langford), reference);
  }
}

TEST(PoolCheckpoint, ResumeRestoresEliteStateAndCommCounters) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 4, 2024);
  options.communication = shared_elite();
  const MultiWalkReport reference = WalkerPool(options).run(langford);

  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 128);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_FALSE(checkpoint->elite.empty());

  WalkerPoolOptions resume_options = options;
  resume_options.resume = checkpoint;
  expect_same_report(WalkerPool(resume_options).run(langford), reference);
}

TEST(PoolCheckpoint, ResumedEmulatedRaceReachesTheSameWinner) {
  // The one solvable workload here: a first-finisher race whose replayed
  // winner must survive preemption and resume.
  const problems::Costas costas(9);
  WalkerPoolOptions options;
  options.num_walkers = 4;
  options.master_seed = 7;
  options.scheduling = Scheduling::kSequential;
  options.termination = Termination::kFirstFinisher;
  const MultiWalkReport reference = WalkerPool(options).run(costas);
  ASSERT_TRUE(reference.solved);

  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(costas, options, 48);
  ASSERT_TRUE(checkpoint.has_value());

  WalkerPoolOptions resume_options = options;
  resume_options.resume = checkpoint;
  const MultiWalkReport resumed = WalkerPool(resume_options).run(costas);
  EXPECT_TRUE(resumed.solved);
  EXPECT_EQ(resumed.winner, reference.winner);
  EXPECT_EQ(resumed.best.solution, reference.best.solution);
  EXPECT_EQ(resumed.total_iterations(), reference.total_iterations());
}

TEST(PoolCheckpoint, JsonRoundTripIsExactAndStrict) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  options.communication = shared_elite();
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 96);
  ASSERT_TRUE(checkpoint.has_value());

  // Exact round-trip through the serialized text.
  const std::optional<util::Json> reparsed =
      util::Json::parse(checkpoint->to_json().dump(0));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(PoolCheckpoint::from_json(*reparsed), *checkpoint);

  // A capture holding all three stages: walker 0 finished before walker 1
  // reached iteration 64, and walker 2 never started.
  const MultiWalkReport reference = WalkerPool(options).run(langford);
  const std::optional<PoolCheckpoint> staged =
      preempt_run(langford, options, 64, nullptr, 1);
  ASSERT_TRUE(staged.has_value());
  ASSERT_EQ(staged->walkers.size(), 3u);
  EXPECT_EQ(staged->walkers[0].stage, PoolCheckpoint::WalkerStage::kDone);
  EXPECT_EQ(staged->walkers[1].stage, PoolCheckpoint::WalkerStage::kRunning);
  EXPECT_EQ(staged->walkers[2].stage, PoolCheckpoint::WalkerStage::kPending);
  const std::optional<util::Json> staged_text =
      util::Json::parse(staged->to_json().dump(0));
  ASSERT_TRUE(staged_text.has_value());
  WalkerPoolOptions resume_options = options;
  resume_options.resume = PoolCheckpoint::from_json(*staged_text);
  EXPECT_EQ(*resume_options.resume, *staged);
  expect_same_report(WalkerPool(resume_options).run(langford), reference);

  // Wrong schema tag, unknown member, missing member: each rejects.
  {
    util::Json bad = checkpoint->to_json();
    bad.set("schema", std::string("cspls-pool-checkpoint/999"));
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
  {
    util::Json bad = checkpoint->to_json();
    bad.set("surprise", true);
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
  {
    const util::Json good = checkpoint->to_json();
    util::Json bad = util::Json::object();
    for (const auto& [key, value] : good.members()) {
      if (key != "walkers") bad.set(key, value);
    }
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
}

TEST(PoolCheckpoint, ResumeValidatesWalkerCountAndEliteShape) {
  const problems::Langford langford(5);
  const WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 64);
  ASSERT_TRUE(checkpoint.has_value());

  // The message of the rejection, naming the member that does not fit.
  const auto rejection = [&](const WalkerPoolOptions& wrong) -> std::string {
    try {
      (void)WalkerPool(wrong).run(langford);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };

  WalkerPoolOptions wrong_count = options;
  wrong_count.num_walkers = 4;
  wrong_count.resume = checkpoint;
  const std::string count_message = rejection(wrong_count);
  EXPECT_NE(count_message.find("resume.walkers"), std::string::npos)
      << count_message;

  WalkerPoolOptions wrong_elite = options;
  wrong_elite.communication = shared_elite();
  wrong_elite.resume = checkpoint;  // captured with communication off
  const std::string elite_message = rejection(wrong_elite);
  EXPECT_NE(elite_message.find("resume.elite"), std::string::npos)
      << elite_message;
}

TEST(PoolCheckpoint, AWalkerGatedOnResumeKeepsItsCapture) {
  // Walker 0 finishes, walker 1 is preempted at iteration 64 and walker 2
  // never starts.  Resumed with the flag already raised, walker 0 replays
  // and walkers 1 and 2 meet the start gate: walker 1 must be handed out
  // with the capture it was resumed with, not restarted from its stream.
  const problems::Langford langford(5);
  WalkerPoolOptions options = base_options(Scheduling::kSequential, 3, 42);
  options.communication = shared_elite();
  options.communication.period = 16;
  const MultiWalkReport reference = WalkerPool(options).run(langford);
  const std::optional<PoolCheckpoint> first =
      preempt_run(langford, options, 64, nullptr, 1);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->walkers[1].stage, PoolCheckpoint::WalkerStage::kRunning);

  const std::atomic<bool> raised{true};
  std::optional<PoolCheckpoint> second;
  WalkerPoolOptions again = options;
  again.resume = first;
  again.preempt = &raised;
  again.checkpoint_out = &second;
  const MultiWalkReport interrupted = WalkerPool(again).run(langford);
  EXPECT_EQ(interrupted.interrupt_cause, core::StopCause::kPreempted);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->walkers[1].stage, PoolCheckpoint::WalkerStage::kRunning);
  EXPECT_EQ(*second, *first);

  WalkerPoolOptions resume_options = options;
  resume_options.resume = second;
  expect_same_report(WalkerPool(resume_options).run(langford), reference);
}

TEST(PoolCheckpoint, CancellationOutranksPreemptionAndCapturesNothing) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  std::atomic<bool> preempt{false};
  std::atomic<bool> cancel{false};
  std::optional<PoolCheckpoint> checkpoint;
  options.preempt = &preempt;
  options.checkpoint_out = &checkpoint;
  options.sample_sink_period = 16;
  options.sample_sink = [&](std::size_t, std::uint64_t iteration, csp::Cost) {
    if (iteration >= 64) {
      preempt.store(true, std::memory_order_relaxed);
      cancel.store(true, std::memory_order_relaxed);
    }
  };
  const MultiWalkReport report =
      WalkerPool(options).run(langford, core::StopToken(&cancel));
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kCancel);
  EXPECT_FALSE(checkpoint.has_value());
}

/// The checkpoint_capture fault site: a corrupt capture (torn state) and a
/// thrown capture both degrade the preemption to a plain interrupt — the
/// report still says kPreempted but no checkpoint is handed out, so
/// callers rerun from their last resume point instead of resuming torn
/// state.
void expect_capture_fault_degrades(util::fault::Kind kind) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kCheckpointCapture;
  plan.walker = 0;
  plan.at_count = 1;
  plan.kind = kind;
  options.faults = {plan};

  MultiWalkReport report;
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 64, &report);
  EXPECT_FALSE(checkpoint.has_value());
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kPreempted);
}

TEST(PoolCheckpoint, CorruptCaptureFaultDegradesToNoCheckpoint) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  expect_capture_fault_degrades(util::fault::Kind::kCorrupt);
}

TEST(PoolCheckpoint, ThrowingCaptureFaultDegradesToNoCheckpoint) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  expect_capture_fault_degrades(util::fault::Kind::kThrow);
}

}  // namespace
}  // namespace cspls::parallel
