// FusedRun batch-executor tests: fused members' reports byte-identical to
// their solo WalkerPool runs (the fusion identity guarantee) across
// scheduling modes and heterogeneous batch shapes, independent per-member
// completion, mid-batch cancellation, the admission-gate withdrawal path
// (the scheduler's give-back primitive), crash containment of a throwing
// member with siblings unaffected, and up-front batch validation.
#include "parallel/fused.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "problems/queens.hpp"

namespace cspls::parallel {
namespace {

/// Full trajectory comparison, timing fields excepted (wall clocks are the
/// one thing fusion is *supposed* to change).
void expect_same_report(const MultiWalkReport& fused,
                        const MultiWalkReport& solo) {
  EXPECT_EQ(fused.solved, solo.solved);
  EXPECT_EQ(fused.winner, solo.winner);
  EXPECT_EQ(fused.best.solved, solo.best.solved);
  EXPECT_EQ(fused.best.cost, solo.best.cost);
  EXPECT_EQ(fused.best.solution, solo.best.solution);
  EXPECT_EQ(fused.best.stats.iterations, solo.best.stats.iterations);
  EXPECT_EQ(fused.comm_publishes, solo.comm_publishes);
  EXPECT_EQ(fused.elite_accepted, solo.elite_accepted);
  EXPECT_EQ(fused.comm_adoptions, solo.comm_adoptions);
  EXPECT_EQ(fused.interrupted, solo.interrupted);
  EXPECT_EQ(fused.interrupt_cause, solo.interrupt_cause);
  EXPECT_EQ(fused.failed_walkers, solo.failed_walkers);
  ASSERT_EQ(fused.walkers.size(), solo.walkers.size());
  for (std::size_t i = 0; i < solo.walkers.size(); ++i) {
    const auto& f = fused.walkers[i];
    const auto& s = solo.walkers[i];
    EXPECT_EQ(f.walker_id, s.walker_id);
    EXPECT_EQ(f.result.solved, s.result.solved);
    EXPECT_EQ(f.result.cost, s.result.cost);
    EXPECT_EQ(f.result.solution, s.result.solution);
    EXPECT_EQ(f.result.interrupted, s.result.interrupted);
    EXPECT_EQ(f.result.stop_cause, s.result.stop_cause);
    EXPECT_EQ(f.result.stats.iterations, s.result.stats.iterations);
    EXPECT_EQ(f.result.stats.swaps, s.result.stats.swaps);
    EXPECT_EQ(f.result.stats.resets, s.result.stats.resets);
    EXPECT_EQ(f.result.stats.restarts, s.result.stats.restarts);
  }
}

WalkerPoolOptions options_of(std::size_t walkers, std::uint64_t seed,
                             Scheduling scheduling, Termination termination) {
  WalkerPoolOptions options;
  options.num_walkers = walkers;
  options.master_seed = seed;
  options.scheduling = scheduling;
  options.termination = termination;
  return options;
}

/// Collects fused reports keyed by member index, thread-safely (sinks for
/// different members may fire concurrently).
struct ReportCollector {
  std::mutex m;
  std::vector<std::unique_ptr<MultiWalkReport>> reports;

  explicit ReportCollector(std::size_t n) : reports(n) {}

  FusedSink sink() {
    return [this](std::size_t member, MultiWalkReport report) {
      const std::lock_guard lock(m);
      ASSERT_LT(member, reports.size());
      // Exactly-once delivery per member.
      ASSERT_EQ(reports[member], nullptr);
      reports[member] =
          std::make_unique<MultiWalkReport>(std::move(report));
    };
  }
};

TEST(FusedRun, HeterogeneousBatchIsByteIdenticalToSoloRuns) {
  // Mixed sizes, seeds, problems and scheduling modes in one batch — every
  // deterministic configuration: ordered sequential members and a
  // threaded best-after-budget member (walker trajectories independent, so
  // any interleaving yields the same per-walker results).
  const problems::Costas costas10(10);
  const problems::Costas costas9(9);
  const problems::Langford langford(5);  // unsolvable: full budgets
  const problems::Queens queens(30);

  std::vector<FusedJob> jobs;
  jobs.push_back({&costas10, options_of(3, 42, Scheduling::kSequential,
                                        Termination::kBestAfterBudget),
                  {}});
  jobs.push_back({&langford, options_of(4, 7, Scheduling::kSequential,
                                        Termination::kFirstFinisher),
                  {}});
  jobs.push_back({&costas9, options_of(2, 11, Scheduling::kThreads,
                                       Termination::kBestAfterBudget),
                  {}});
  jobs.push_back({&queens, options_of(1, 3, Scheduling::kSequential,
                                      Termination::kFirstFinisher),
                  {}});

  ReportCollector collected(jobs.size());
  const auto withdrawn = FusedRun(FusedOptions{.num_threads = 3})
                             .run(jobs, collected.sink());
  EXPECT_TRUE(withdrawn.empty());

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_NE(collected.reports[j], nullptr) << "member " << j;
    const auto solo = WalkerPool(jobs[j].options).run(*jobs[j].prototype);
    expect_same_report(*collected.reports[j], solo);
  }
}

TEST(FusedRun, SingleThreadTeamRunsInlineWithSameReports) {
  const problems::Costas costas(9);
  std::vector<FusedJob> jobs;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    jobs.push_back({&costas, options_of(2, seed, Scheduling::kSequential,
                                        Termination::kBestAfterBudget),
                    {}});
  }
  ReportCollector collected(jobs.size());
  const auto withdrawn = FusedRun(FusedOptions{.num_threads = 1})
                             .run(jobs, collected.sink());
  EXPECT_TRUE(withdrawn.empty());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_NE(collected.reports[j], nullptr);
    const auto solo = WalkerPool(jobs[j].options).run(*jobs[j].prototype);
    expect_same_report(*collected.reports[j], solo);
  }
}

TEST(FusedRun, MidBatchCancelCutsOneMemberSiblingUnaffected) {
  // A single-thread team executes members in order: member 0's sink raises
  // member 1's cancel flag, so member 1 — not yet started — is cut before
  // its first iteration and reports interrupted-kCancel without paying any
  // walker start-up.  Member 0 is untouched.
  const problems::Costas quick(8);
  const problems::Langford slow(5);
  std::atomic<bool> cancel{false};

  std::vector<FusedJob> jobs;
  jobs.push_back({&quick, options_of(1, 5, Scheduling::kSequential,
                                     Termination::kBestAfterBudget),
                  {}});
  jobs.push_back({&slow, options_of(6, 9, Scheduling::kSequential,
                                    Termination::kBestAfterBudget),
                  core::StopToken(&cancel)});

  ReportCollector collected(jobs.size());
  std::vector<std::unique_ptr<MultiWalkReport>>& reports = collected.reports;
  const FusedSink base = collected.sink();
  const FusedSink sink = [&](std::size_t member, MultiWalkReport report) {
    if (member == 0) cancel.store(true);
    base(member, std::move(report));
  };

  const auto withdrawn =
      FusedRun(FusedOptions{.num_threads = 1}).run(jobs, sink);
  EXPECT_TRUE(withdrawn.empty());

  ASSERT_NE(reports[0], nullptr);
  expect_same_report(*reports[0],
                     WalkerPool(jobs[0].options).run(*jobs[0].prototype));

  // The cancelled member was started (it owes a report) but no walker ran.
  ASSERT_NE(reports[1], nullptr);
  EXPECT_TRUE(reports[1]->interrupted);
  EXPECT_EQ(reports[1]->interrupt_cause, core::StopCause::kCancel);
  for (const auto& w : reports[1]->walkers) {
    EXPECT_TRUE(w.result.interrupted);
    EXPECT_EQ(w.result.stop_cause, core::StopCause::kCancel);
    EXPECT_EQ(w.result.stats.iterations, 0u);
  }
}

TEST(FusedRun, AdmissionGateWithdrawsMembersWithoutRunningThem) {
  const problems::Costas costas(9);
  std::vector<FusedJob> jobs;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    jobs.push_back({&costas, options_of(2, seed, Scheduling::kSequential,
                                        Termination::kBestAfterBudget),
                    {}});
  }
  // A threaded member starts its own walker threads once admitted.
  jobs.push_back({&costas, options_of(3, 5, Scheduling::kThreads,
                                      Termination::kBestAfterBudget),
                  {}});

  FusedOptions fused;
  fused.num_threads = 2;
  std::atomic<std::size_t> gate_calls{0};
  fused.admit = [&](std::size_t member) {
    gate_calls.fetch_add(1);
    return member % 2 == 0;  // withdraw members 1 and 3
  };

  ReportCollector collected(jobs.size());
  const auto withdrawn = FusedRun(fused).run(jobs, collected.sink());
  EXPECT_EQ(withdrawn, (std::vector<std::size_t>{1, 3}));
  // Consulted exactly once per member, admitted or not.
  EXPECT_EQ(gate_calls.load(), jobs.size());

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j % 2 == 0) {
      ASSERT_NE(collected.reports[j], nullptr);
      expect_same_report(*collected.reports[j],
                         WalkerPool(jobs[j].options).run(*jobs[j].prototype));
    } else {
      // Withdrawn members never start and never report.
      EXPECT_EQ(collected.reports[j], nullptr);
    }
  }
}

TEST(FusedRun, ValidatesEveryMemberBeforeAnyWork) {
  const problems::Costas costas(9);
  std::vector<FusedJob> jobs;
  jobs.push_back({&costas, options_of(2, 1, Scheduling::kSequential,
                                      Termination::kBestAfterBudget),
                  {}});
  jobs.push_back({&costas, options_of(0, 2, Scheduling::kSequential,
                                      Termination::kBestAfterBudget),
                  {}});  // degenerate: zero walkers

  bool sink_fired = false;
  EXPECT_THROW(FusedRun().run(jobs,
                              [&](std::size_t, MultiWalkReport) {
                                sink_fired = true;
                              }),
               std::invalid_argument);
  EXPECT_FALSE(sink_fired);

  std::vector<FusedJob> null_member(1);
  EXPECT_THROW(FusedRun().run(null_member, nullptr), std::invalid_argument);
}

TEST(FusedRun, EmptyBatchIsANoOp) {
  bool sink_fired = false;
  const auto withdrawn =
      FusedRun().run({}, [&](std::size_t, MultiWalkReport) {
        sink_fired = true;
      });
  EXPECT_TRUE(withdrawn.empty());
  EXPECT_FALSE(sink_fired);
}

}  // namespace
}  // namespace cspls::parallel
