// Crash containment and deterministic fault injection in the WalkerPool:
// a seeded plan kills walker k at probe N under every scheduling mode with
// survivors byte-identical to the no-fault run; an all-failed population
// still yields a structured report (never process death); corrupt and
// stall kinds degrade without failing.  The schedule-driven tests skip in
// builds without -DCSPLS_FAULT_INJECTION=ON (the sites are no-ops there —
// asserted by util_fault_test's gate test); the genuine-crash containment
// tests run in every build through a throwing Problem wrapper.
#include "parallel/walker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/fused.hpp"
#include "problems/costas.hpp"
#include "util/fault.hpp"

namespace cspls::parallel {
namespace {

using util::fault::FaultPlan;
using util::fault::Kind;
using util::fault::Site;

WalkerPoolOptions budget_options(Scheduling scheduling,
                                 std::size_t num_walkers,
                                 std::uint64_t master_seed) {
  WalkerPoolOptions options;
  options.num_walkers = num_walkers;
  options.master_seed = master_seed;
  options.scheduling = scheduling;
  // Full-budget termination: walkers are mutually independent, so
  // trajectories are seed-deterministic under every scheduling mode and
  // survivor byte-identity is assertable even under real threads.
  options.termination = Termination::kBestAfterBudget;
  return options;
}

void expect_same_walk(const WalkerOutcome& a, const WalkerOutcome& b) {
  EXPECT_EQ(a.result.solved, b.result.solved);
  EXPECT_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.solution, b.result.solution);
  EXPECT_EQ(a.result.stats.iterations, b.result.stats.iterations);
  EXPECT_EQ(a.result.stats.swaps, b.result.stats.swaps);
  EXPECT_EQ(a.result.stats.resets, b.result.stats.resets);
  EXPECT_EQ(a.result.stats.restarts, b.result.stats.restarts);
}

TEST(FaultInjection, SeededPlanKillsOneWalkerSurvivorsAreByteIdentical) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  const problems::Costas costas(9);
  for (const Scheduling scheduling :
       {Scheduling::kSequential, Scheduling::kThreads}) {
    WalkerPoolOptions options = budget_options(scheduling, 3, 42);
    const MultiWalkReport reference = WalkerPool(options).run(costas);
    ASSERT_EQ(reference.failed_walkers, 0u);

    FaultPlan kill;
    kill.site = Site::kWalkerIteration;
    kill.walker = 1;
    kill.at_count = 10;
    kill.kind = Kind::kThrow;
    options.faults = {kill};
    const MultiWalkReport faulted = WalkerPool(options).run(costas);

    EXPECT_EQ(faulted.failed_walkers, 1u);
    EXPECT_GE(faulted.faults_injected, 1u);
    EXPECT_FALSE(faulted.all_failed());
    ASSERT_EQ(faulted.walkers.size(), 3u);
    const WalkerOutcome& victim = faulted.walkers[1];
    EXPECT_TRUE(victim.failed());
    EXPECT_EQ(victim.result.stop_cause, core::StopCause::kFailed);
    EXPECT_NE(victim.result.error.find("walker_iteration"),
              std::string::npos);
    EXPECT_EQ(victim.injected_faults, 1u);
    // The crash is invisible to the survivors: byte-identical walks.
    expect_same_walk(faulted.walkers[0], reference.walkers[0]);
    expect_same_walk(faulted.walkers[2], reference.walkers[2]);
    EXPECT_EQ(faulted.walkers[0].injected_faults, 0u);
  }
}

TEST(FaultInjection, AllWalkersCrashingStillYieldsAStructuredReport) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  const problems::Costas costas(9);
  for (const Scheduling scheduling :
       {Scheduling::kSequential, Scheduling::kThreads}) {
    WalkerPoolOptions options = budget_options(scheduling, 3, 7);
    options.termination = Termination::kFirstFinisher;
    FaultPlan kill_all;
    kill_all.site = Site::kWalkerIteration;
    kill_all.walker = util::fault::kAnyWalker;
    kill_all.at_count = 1;
    kill_all.kind = Kind::kThrow;
    options.faults = {kill_all};

    const MultiWalkReport report = WalkerPool(options).run(costas);
    EXPECT_TRUE(report.all_failed());
    EXPECT_EQ(report.failed_walkers, 3u);
    EXPECT_FALSE(report.solved);
    EXPECT_FALSE(report.has_winner());
    EXPECT_FALSE(report.interrupted);  // failure is not interruption
    for (const WalkerOutcome& walker : report.walkers) {
      EXPECT_TRUE(walker.failed());
      EXPECT_NE(walker.result.error.find("injected fault"),
                std::string::npos);
    }
  }
}

TEST(FaultInjection, CorruptionIsReportedAndTheWalkerRecovers) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  const problems::Costas costas(9);
  WalkerPoolOptions options = budget_options(Scheduling::kSequential, 1, 3);
  FaultPlan scramble;
  scramble.site = Site::kWalkerIteration;
  scramble.walker = 0;
  scramble.at_count = 5;
  scramble.kind = Kind::kCorrupt;
  options.faults = {scramble};

  const MultiWalkReport report = WalkerPool(options).run(costas);
  // Corrupt-and-report: the configuration was scrambled (and the event
  // counted), but the walker keeps walking and the run stays healthy.
  EXPECT_EQ(report.failed_walkers, 0u);
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.walkers[0].injected_faults, 1u);
  EXPECT_TRUE(report.solved);
}

TEST(FaultInjection, StallsDelayButNeverFail) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  const problems::Costas costas(9);
  WalkerPoolOptions options = budget_options(Scheduling::kSequential, 2, 5);
  FaultPlan stall;
  stall.site = Site::kWalkerIteration;
  stall.walker = 0;
  stall.at_count = 3;
  stall.kind = Kind::kStall;
  stall.stall_ms = 1;
  options.faults = {stall};

  const MultiWalkReport report = WalkerPool(options).run(costas);
  EXPECT_EQ(report.failed_walkers, 0u);
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_TRUE(report.solved);
}

TEST(FaultInjection, ExchangeSitesDropCorruptedTraffic) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  const problems::Costas costas(9);
  WalkerPoolOptions options = budget_options(Scheduling::kSequential, 3, 11);
  options.communication.neighborhood = Neighborhood::kComplete;
  options.communication.exchange = Exchange::kElite;
  // Publish often enough that walks actually reach the site before solving.
  options.communication.period = 25;
  const MultiWalkReport reference = WalkerPool(options).run(costas);

  // Drop every publish: the pool must run exactly like Exchange::kNone
  // traffic-wise (nothing ever lands in a slot), yet stay healthy.
  FaultPlan drop;
  drop.site = Site::kElitePublish;
  drop.walker = util::fault::kAnyWalker;
  drop.at_count = 1;
  drop.kind = Kind::kCorrupt;
  std::vector<FaultPlan> drops;
  for (std::uint64_t at = 1; at <= 10'000; at *= 2) {
    drop.at_count = at;  // geometric cover; cheap approximation of "all"
    drops.push_back(drop);
  }
  options.faults = drops;
  const MultiWalkReport faulted = WalkerPool(options).run(costas);
  EXPECT_EQ(faulted.failed_walkers, 0u);
  EXPECT_LE(faulted.elite_accepted, reference.comm_publishes);
  EXPECT_GE(faulted.faults_injected, 1u);
}

// --- Genuine-crash containment (every build) --------------------------

/// Wrapper over a real model whose armed clones throw after a fixed number
/// of committed swaps — a reproducible stand-in for a genuinely buggy cost
/// model.  Which clones arm is decided by clone order (deterministic under
/// sequential scheduling; kEveryClone is order-independent), counted
/// through a shared atomic so the prototype can be cloned from any thread.
class CrashingProblem final : public csp::Problem {
 public:
  static constexpr std::size_t kEveryClone = static_cast<std::size_t>(-1);

  CrashingProblem(std::unique_ptr<csp::Problem> inner,
                  std::size_t crash_clone, std::uint64_t crash_after_swaps)
      : inner_(std::move(inner)),
        crash_clone_(crash_clone),
        crash_after_(crash_after_swaps),
        clones_(std::make_shared<std::atomic<std::size_t>>(0)) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::string instance_description() const override {
    return inner_->instance_description();
  }
  [[nodiscard]] std::size_t num_variables() const noexcept override {
    return inner_->num_variables();
  }
  [[nodiscard]] std::unique_ptr<csp::Problem> clone() const override {
    auto copy = std::make_unique<CrashingProblem>(inner_->clone(),
                                                  crash_clone_, crash_after_);
    copy->clones_ = clones_;
    const std::size_t index = clones_->fetch_add(1);
    copy->armed_ = crash_clone_ == kEveryClone || index == crash_clone_;
    return copy;
  }
  [[nodiscard]] std::span<const int> values() const noexcept override {
    return inner_->values();
  }
  csp::Cost randomize(util::Xoshiro256& rng) override {
    return inner_->randomize(rng);
  }
  csp::Cost assign(std::span<const int> values) override {
    return inner_->assign(values);
  }
  [[nodiscard]] csp::Cost total_cost() const noexcept override {
    return inner_->total_cost();
  }
  [[nodiscard]] csp::Cost full_cost() const override {
    return inner_->full_cost();
  }
  [[nodiscard]] csp::Cost cost_on_variable(std::size_t i) const override {
    return inner_->cost_on_variable(i);
  }
  [[nodiscard]] csp::Cost cost_if_swap(std::size_t i,
                                       std::size_t j) const override {
    return inner_->cost_if_swap(i, j);
  }
  void cost_on_all_variables(std::span<csp::Cost> out) const override {
    inner_->cost_on_all_variables(out);
  }
  std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                              std::size_t& best_j, csp::Cost& best_cost,
                              std::size_t& ties) const override {
    return inner_->best_swap_for(x, rng, best_j, best_cost, ties);
  }
  csp::Cost swap(std::size_t i, std::size_t j) override {
    if (armed_ && ++swaps_ > crash_after_) {
      throw std::runtime_error("synthetic walker crash");
    }
    return inner_->swap(i, j);
  }
  csp::Cost reset_perturbation(double fraction,
                               util::Xoshiro256& rng) override {
    return inner_->reset_perturbation(fraction, rng);
  }
  [[nodiscard]] bool verify(std::span<const int> values) const override {
    return inner_->verify(values);
  }
  [[nodiscard]] csp::TuningHints tuning() const noexcept override {
    return inner_->tuning();
  }

 private:
  std::unique_ptr<csp::Problem> inner_;
  std::size_t crash_clone_ = kEveryClone;
  std::uint64_t crash_after_ = 0;
  std::shared_ptr<std::atomic<std::size_t>> clones_;
  bool armed_ = false;
  std::uint64_t swaps_ = 0;
};

TEST(CrashContainment, SequentialPoolContainsAGenuineCrash) {
  // No fault schedule involved: a cost model that throws mid-search is
  // contained in every build, and survivors match the unwrapped run.
  const problems::Costas costas(9);
  const WalkerPoolOptions options =
      budget_options(Scheduling::kSequential, 3, 21);
  const MultiWalkReport reference = WalkerPool(options).run(costas);

  const CrashingProblem crasher(std::make_unique<problems::Costas>(9),
                                /*crash_clone=*/1, /*crash_after_swaps=*/5);
  const MultiWalkReport report = WalkerPool(options).run(crasher);
  EXPECT_EQ(report.failed_walkers, 1u);
  ASSERT_EQ(report.walkers.size(), 3u);
  EXPECT_TRUE(report.walkers[1].failed());
  EXPECT_EQ(report.walkers[1].result.error, "synthetic walker crash");
  EXPECT_FALSE(report.walkers[1].result.interrupted);
  expect_same_walk(report.walkers[0], reference.walkers[0]);
  expect_same_walk(report.walkers[2], reference.walkers[2]);
}

TEST(CrashContainment, ThreadedAllCrashPoolNeverTerminatesTheProcess) {
  const CrashingProblem crasher(std::make_unique<problems::Costas>(9),
                                CrashingProblem::kEveryClone,
                                /*crash_after_swaps=*/3);
  WalkerPoolOptions options = budget_options(Scheduling::kThreads, 4, 13);
  options.termination = Termination::kFirstFinisher;
  // An escaped exception on a jthread would std::terminate the whole test
  // binary — reaching the assertions below IS the containment proof.
  const MultiWalkReport report = WalkerPool(options).run(crasher);
  EXPECT_TRUE(report.all_failed());
  EXPECT_EQ(report.failed_walkers, 4u);
  EXPECT_FALSE(report.solved);
  EXPECT_FALSE(report.has_winner());
  for (const WalkerOutcome& walker : report.walkers) {
    EXPECT_EQ(walker.result.error, "synthetic walker crash");
    EXPECT_EQ(walker.result.stop_cause, core::StopCause::kFailed);
  }
}

TEST(CrashContainment, FusedBatchContainsACrashingMemberSiblingsUnaffected) {
  // One member's cost model throws mid-walk inside a fused launch: that
  // member fails exactly as it would solo, and its sibling members' reports
  // stay byte-identical to their own solo runs — the crash never escapes
  // the member that owns it.
  const problems::Costas left(9);
  const problems::Costas right(10);
  const CrashingProblem crasher(std::make_unique<problems::Costas>(9),
                                /*crash_clone=*/1, /*crash_after_swaps=*/5);

  std::vector<FusedJob> jobs;
  jobs.push_back(
      {&left, budget_options(Scheduling::kSequential, 2, 31), {}});
  jobs.push_back(
      {&crasher, budget_options(Scheduling::kSequential, 3, 21), {}});
  jobs.push_back({&right, budget_options(Scheduling::kSequential, 2, 8), {}});

  std::mutex m;
  std::vector<std::unique_ptr<MultiWalkReport>> reports(jobs.size());
  const auto withdrawn =
      FusedRun(FusedOptions{.num_threads = 2})
          .run(jobs, [&](std::size_t member, MultiWalkReport report) {
            const std::lock_guard lock(m);
            reports[member] =
                std::make_unique<MultiWalkReport>(std::move(report));
          });
  EXPECT_TRUE(withdrawn.empty());
  for (const auto& report : reports) ASSERT_NE(report, nullptr);

  // The crashing member matches its own solo run, fault and all.  (A fresh
  // wrapper: the clone-order counter is shared per instance, and the fused
  // run already consumed this one's first clones.)
  const CrashingProblem solo_crasher(std::make_unique<problems::Costas>(9),
                                     /*crash_clone=*/1,
                                     /*crash_after_swaps=*/5);
  const MultiWalkReport solo = WalkerPool(jobs[1].options).run(solo_crasher);
  EXPECT_EQ(reports[1]->failed_walkers, 1u);
  ASSERT_EQ(reports[1]->walkers.size(), 3u);
  EXPECT_TRUE(reports[1]->walkers[1].failed());
  EXPECT_EQ(reports[1]->walkers[1].result.error, "synthetic walker crash");
  for (std::size_t w = 0; w < solo.walkers.size(); ++w) {
    expect_same_walk(reports[1]->walkers[w], solo.walkers[w]);
  }

  // Siblings are untouched: byte-identical to their solo runs.
  const MultiWalkReport solo_left = WalkerPool(jobs[0].options).run(left);
  EXPECT_EQ(reports[0]->failed_walkers, 0u);
  for (std::size_t w = 0; w < solo_left.walkers.size(); ++w) {
    expect_same_walk(reports[0]->walkers[w], solo_left.walkers[w]);
  }
  const MultiWalkReport solo_right = WalkerPool(jobs[2].options).run(right);
  EXPECT_EQ(reports[2]->failed_walkers, 0u);
  for (std::size_t w = 0; w < solo_right.walkers.size(); ++w) {
    expect_same_walk(reports[2]->walkers[w], solo_right.walkers[w]);
  }
}

TEST(CrashContainment, FailedWalkersLoseBestAfterBudgetSelection) {
  // The selection comparator prefers any finished walker over a failed
  // one, whatever the costs: a failed walker's result carries no usable
  // configuration.
  const CrashingProblem crasher(std::make_unique<problems::Costas>(9),
                                /*crash_clone=*/0, /*crash_after_swaps=*/2);
  const WalkerPoolOptions options =
      budget_options(Scheduling::kSequential, 2, 9);
  const MultiWalkReport report = WalkerPool(options).run(crasher);
  EXPECT_EQ(report.failed_walkers, 1u);
  EXPECT_FALSE(report.best.stop_cause == core::StopCause::kFailed);
}

}  // namespace
}  // namespace cspls::parallel
