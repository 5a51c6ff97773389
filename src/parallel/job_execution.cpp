#include "parallel/job_execution.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "csp/problem.hpp"

namespace cspls::parallel {

namespace {

using Stage = PoolCheckpoint::WalkerStage;

core::Params params_for(const csp::Problem& prototype,
                        const std::optional<core::Params>& params) {
  return params.has_value() ? *params
                            : core::Params::from_hints(
                                  prototype.tuning(),
                                  prototype.num_variables());
}

/// Every configuration a caller hands in must be a permutation of the
/// instance's values before any kernel reads it: kernels index their
/// tables by value, so a foreign value reads out of bounds, and a repeated
/// one walks a space that holds no solution.
void require_permutation(const csp::Problem& prototype,
                         std::span<const int> values,
                         const std::string& member) {
  if (!csp::is_permutation_of(values, prototype.values())) {
    throw std::invalid_argument(
        "WalkerPoolOptions: " + member + " is not a permutation of the " +
        std::to_string(prototype.num_variables()) + " values of \"" +
        std::string(prototype.name()) + "\"");
  }
}

/// The one check of a state a pool resumes from, run on the caller's
/// `resume` and on every checkpoint the pool hands out.  Throws
/// std::invalid_argument naming the first member a pool of `walkers`
/// walkers and `slots` elite slots on `prototype` cannot resume from.
/// Costs are evaluated on one clone, and only after the configuration they
/// price has passed its permutation check.
void check_resume(const PoolCheckpoint& resume, const csp::Problem& prototype,
                  const core::Params& params, std::size_t walkers,
                  std::size_t slots) {
  if (resume.walkers.size() != walkers) {
    throw std::invalid_argument(
        "WalkerPoolOptions: resume.walkers holds " +
        std::to_string(resume.walkers.size()) + " entries but the pool has " +
        std::to_string(walkers) + " walkers");
  }
  if (resume.elite.size() != slots) {
    throw std::invalid_argument(
        "WalkerPoolOptions: resume.elite holds " +
        std::to_string(resume.elite.size()) + " slots but the "
        "communication policy allocates " + std::to_string(slots));
  }
  // Every cost the checkpoint states must be the cost of its
  // configuration: a lowered cost would let a report claim a solve its
  // solution does not have.
  const auto probe = prototype.clone();
  const auto require_cost = [&](std::span<const int> values, csp::Cost cost,
                                const std::string& member) {
    const csp::Cost actual = probe->assign(values);
    if (actual != cost) {
      throw std::invalid_argument(
          "WalkerPoolOptions: " + member + " is " + std::to_string(cost) +
          " but its configuration costs " + std::to_string(actual));
    }
  };
  // The engine sets a tabu clock only to the current iteration plus a
  // freeze, so a clock further ahead freezes its variable for longer than
  // any walk of these params could have.
  const std::uint64_t max_freeze =
      std::max(params.freeze_loc_min, params.freeze_swap);
  for (std::size_t i = 0; i < resume.walkers.size(); ++i) {
    const PoolCheckpoint::WalkerEntry& entry = resume.walkers[i];
    const std::string walker = "resume.walkers[" + std::to_string(i) + "]";
    if (entry.stage == Stage::kRunning) {
      const core::Checkpoint& checkpoint = entry.checkpoint;
      require_permutation(prototype, checkpoint.values,
                          walker + ".checkpoint.values");
      require_permutation(prototype, checkpoint.best,
                          walker + ".checkpoint.best");
      // Xoshiro256::from_state would silently swap an all-zero state for
      // the default stream: the resumed walk would not be the captured one.
      if (std::ranges::all_of(checkpoint.rng_state,
                              [](std::uint64_t word) { return word == 0; })) {
        throw std::invalid_argument(
            "WalkerPoolOptions: " + walker +
            ".checkpoint.rng_state is all-zero, which is not a xoshiro256** "
            "state");
      }
      require_cost(checkpoint.values, checkpoint.cost,
                   walker + ".checkpoint.cost");
      require_cost(checkpoint.best, checkpoint.best_cost,
                   walker + ".checkpoint.best_cost");
      if (checkpoint.tabu_until.size() != checkpoint.values.size()) {
        throw std::invalid_argument(
            "WalkerPoolOptions: " + walker + ".checkpoint.tabu_until holds " +
            std::to_string(checkpoint.tabu_until.size()) + " clocks for " +
            std::to_string(checkpoint.values.size()) + " variables");
      }
      const std::uint64_t now = checkpoint.stats.iterations;
      for (std::size_t v = 0; v < checkpoint.tabu_until.size(); ++v) {
        const std::uint64_t until = checkpoint.tabu_until[v];
        if (until > now && until - now > max_freeze) {
          throw std::invalid_argument(
              "WalkerPoolOptions: " + walker + ".checkpoint.tabu_until[" +
              std::to_string(v) + "] is " + std::to_string(until) +
              ", past iteration " + std::to_string(now) +
              " plus the longest freeze " + std::to_string(max_freeze));
        }
      }
    } else if (entry.stage == Stage::kDone) {
      // A finished walker is replayed verbatim, so its result must be a
      // walk this instance could have reported.  No solution means the
      // walker failed before walking, which solves nothing.
      const core::Result& result = entry.result;
      if (!result.solution.empty()) {
        require_permutation(prototype, result.solution,
                            walker + ".result.solution");
        require_cost(result.solution, result.cost, walker + ".result.cost");
      }
      if (result.solved != (!result.solution.empty() &&
                            result.cost <= params.target_cost)) {
        throw std::invalid_argument(
            "WalkerPoolOptions: " + walker + ".result says solved=" +
            (result.solved ? "true" : "false") +
            ", which its solution and cost contradict");
      }
    }
  }
  for (std::size_t i = 0; i < resume.elite.size(); ++i) {
    if (!resume.elite[i].has_entry) continue;
    const std::string slot = "resume.elite[" + std::to_string(i) + "]";
    require_permutation(prototype, resume.elite[i].values, slot + ".values");
    require_cost(resume.elite[i].values, resume.elite[i].cost,
                 slot + ".cost");
  }
}

/// Best-cost selection over completed walks (Termination::kBestAfterBudget
/// and every race nobody won): prefer any solved result, then any survivor
/// over a crashed walker, then the lowest cost, first index breaking ties.
/// On an all-failed pool this still selects a (failed) result so the
/// report stays structured.
void select_best_after_budget(MultiWalkReport& report) {
  const auto best_it = std::min_element(
      report.walkers.begin(), report.walkers.end(),
      [](const WalkerOutcome& a, const WalkerOutcome& b) {
        if (a.result.solved != b.result.solved) return a.result.solved;
        if (a.failed() != b.failed()) return !a.failed();
        return a.result.cost < b.result.cost;
      });
  if (best_it != report.walkers.end()) {
    report.best = best_it->result;
    report.solved = best_it->result.solved;
    report.winner = report.solved ? static_cast<std::size_t>(
                                        best_it - report.walkers.begin())
                                  : kNoWinner;
  }
}

}  // namespace

namespace detail {

void run_tickets(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      body(i);
    }
  };
  if (threads <= 1) {
    drain();
    return;
  }
  std::vector<std::jthread> team;
  team.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) team.emplace_back(drain);
  team.clear();  // join
}

JobExecution::JobExecution(const csp::Problem& prototype,
                           const WalkerPoolOptions& options,
                           core::StopToken external)
    : prototype_(prototype),
      options_(options),
      external_(external),
      k_(options.num_walkers),
      engine_((validate_options(options), params_for(prototype,
                                                     options.params))),
      streams_(options.master_seed),
      comm_(options.communication, options.num_walkers),
      threaded_(options.scheduling == Scheduling::kThreads),
      race_(threaded_ && options.termination == Termination::kFirstFinisher) {
  if (options_.warm_start.has_value()) {
    require_permutation(prototype, *options_.warm_start, "warm_start");
  }
  if (!options_.resume.has_value()) {
    entries_.resize(k_);
    return;
  }
  const PoolCheckpoint& resume = *options_.resume;
  check_resume(resume, prototype, engine_.params(), k_, comm_.num_slots());
  entries_ = resume.walkers;
  // Restore the communication state before any walker runs, so the first
  // publish/adopt of the resumed run sees exactly the preempted state.
  comm_.restore_counters(resume.comm_clock, resume.comm_adoptions);
  for (std::size_t i = 0; i < resume.elite.size(); ++i) {
    comm_.slot(i).restore(resume.elite[i]);
  }
}

MultiWalkReport JobExecution::run() {
  run_tickets(k_, preferred_threads(),
              [this](std::size_t id) { run_walker(id); });
  return finalize();
}

std::size_t JobExecution::preferred_threads() const noexcept {
  if (!threaded_) return 1;
  const std::size_t hw = std::thread::hardware_concurrency() == 0
                             ? 2
                             : std::thread::hardware_concurrency();
  const std::size_t thread_cap =
      options_.max_threads == 0 ? k_ : std::min(options_.max_threads, k_);
  return std::min({k_, thread_cap, hw * 16});
}

void JobExecution::note_completion(std::size_t id, const core::Result& result) {
  if (race_ && result.solved && !result.interrupted) {
    // First walker to flip the flag is the winner; latecomers keep
    // their result but lose the race (exactly the paper's completion
    // protocol).  A replayed kDone walker competes like a live one so a
    // resumed race reaches the same winner as the uninterrupted run.
    bool expected = false;
    if (stop_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
      winner_.store(id, std::memory_order_release);
      solution_time_us_.store(watch_.elapsed_us(), std::memory_order_release);
    }
  }
}

void JobExecution::run_walker(std::size_t id) {
  PoolCheckpoint::WalkerEntry& entry = entries_[id];
  // A walker that already finished before the pool was preempted replays
  // its recorded outcome verbatim — no clone, no RNG draws, no fault
  // probes beyond those its original run already burned.
  if (entry.stage == Stage::kDone) {
    note_completion(id, entry.result);
    return;
  }
  // The start gate comes after the replay on purpose: the replay is free
  // (no clone, no draws) and under sequential communication the restored
  // elite state already holds its publishes, so skipping it would break the
  // byte-identity of a later resume.  A walker the gate stops keeps the
  // stage and state it was resumed with, so a checkpoint resumes it from
  // its untouched stream or its captured walk.
  if (const core::StopCause cut = start_gate();
      cut != core::StopCause::kNone) {
    entry.result = core::Result{};
    entry.result.interrupted = true;
    entry.result.stop_cause = cut;
    entry.injected_faults = 0;
    return;
  }
  // Each walker owns its fault session, exactly like its RNG stream, so
  // probe counts are deterministic under every scheduling mode.  Production
  // builds never arm it: the sites compile to no-ops.
  util::fault::Session session(
      util::fault::kCompiledIn ? &options_.faults : nullptr, id);
  std::optional<core::Checkpoint> captured;
  // Crash containment: no exception may escape a walker body — an escape
  // under kThreads would std::terminate the process.  A throwing walker
  // (injected or genuine) is recorded as StopCause::kFailed with its
  // message; survivors keep walking and the termination policies
  // aggregate over them.
  try {
    auto problem = prototype_.clone();
    util::Xoshiro256 rng = streams_.stream(id);
    core::Hooks hooks = comm_hooks(options_.communication, comm_, id, k_,
                                   session.armed() ? &session : nullptr);
    if (session.armed()) hooks.fault = &session;
    hooks.heartbeat = options_.heartbeat;
    if (options_.sample_sink && options_.sample_sink_period != 0) {
      hooks.sample = [this, id](std::uint64_t iteration, csp::Cost cost) {
        options_.sample_sink(id, iteration, cost);
      };
      hooks.sample_period = options_.sample_sink_period;
    }
    if (options_.warm_start.has_value()) {
      hooks.warm_start = &*options_.warm_start;
    }
    // Exact resume overrides the warm start: the checkpoint carries the
    // full mid-walk state (values, bests, tabu marks, RNG position), not
    // just a seed configuration.
    if (entry.stage == Stage::kRunning) hooks.resume = &entry.checkpoint;
    if (options_.checkpoint_out != nullptr) hooks.checkpoint_out = &captured;
    entry.result = engine_.solve(*problem, rng, walker_token(), hooks);
    note_completion(id, entry.result);
  } catch (const std::exception& e) {
    entry.result = core::Result{};
    entry.result.stop_cause = core::StopCause::kFailed;
    entry.result.error = e.what();
  } catch (...) {
    entry.result = core::Result{};
    entry.result.stop_cause = core::StopCause::kFailed;
    entry.result.error = "unknown exception";
  }
  entry.injected_faults = session.fired();
  // A preempted walker is suspended on the state its capture took; every
  // other started walker has finished.
  if (captured.has_value()) {
    entry.stage = Stage::kRunning;
    entry.checkpoint = std::move(*captured);
  } else {
    entry.stage = Stage::kDone;
  }
}

core::StopToken JobExecution::walker_token() const {
  // The caller's cancel/deadline (and any flag it chained, such as the
  // service's watchdog), chained with the pool's completion flag when
  // racing, plus the pool preemption flag when the caller may suspend the
  // job.
  const core::StopToken token =
      race_ ? external_.also_cancelled_by(&stop_) : external_;
  return options_.preempt != nullptr ? token.with_preempt(options_.preempt)
                                     : token;
}

core::StopCause JobExecution::start_gate() {
  core::StopCause cut = gate_cause_.load(std::memory_order_acquire);
  if (cut != core::StopCause::kNone) return cut;
  // One poll of a fresh copy of the walker's own token: its first poll
  // reads the clock, so an expired deadline stops the walker here rather
  // than a stride of iterations in, and the gate records exactly the cause
  // that poll would have recorded.
  cut = walker_token().poll();
  if (cut == core::StopCause::kNone) return cut;
  // The first cause latched holds for every later walker.
  core::StopCause expected = core::StopCause::kNone;
  return gate_cause_.compare_exchange_strong(expected, cut,
                                             std::memory_order_acq_rel)
             ? cut
             : expected;
}

void JobExecution::assemble_checkpoint() {
  PoolCheckpoint cp;
  cp.walkers.resize(k_);
  for (std::size_t id = 0; id < k_; ++id) {
    PoolCheckpoint::WalkerEntry& entry = entries_[id];
    PoolCheckpoint::WalkerEntry& kept = cp.walkers[id];
    kept.stage = entry.stage;
    if (entry.stage == Stage::kRunning) {
      kept.checkpoint = std::move(entry.checkpoint);
    } else if (entry.stage == Stage::kDone) {
      // A started walker that stopped interrupted without a capture either
      // failed its capture or observed another stop source than the
      // preemption: no consistent resumable state exists.
      if (entry.result.interrupted) return;
      kept.result = entry.result;
      kept.injected_faults = entry.injected_faults;
    }
  }
  for (std::size_t i = 0; i < comm_.num_slots(); ++i) {
    cp.elite.push_back(comm_.slot(i).snapshot());
  }
  cp.comm_clock = comm_.now();
  cp.comm_adoptions = comm_.adoptions();
  // A torn capture (the checkpoint_capture corrupt fault, or any bug
  // producing inconsistent state) fails the check a resume makes here,
  // instead of planting a time bomb in the requeue.
  try {
    check_resume(cp, prototype_, engine_.params(), k_, comm_.num_slots());
  } catch (const std::invalid_argument&) {
    return;
  }
  options_.checkpoint_out->emplace(std::move(cp));
}

MultiWalkReport JobExecution::finalize() {
  MultiWalkReport report;
  if (threaded_) {
    report.wall_seconds = watch_.elapsed_seconds();
  } else {
    // Emulated machine's wall clock: all walkers start together and the
    // pool stops when the slowest one exhausts its budget.
    for (const PoolCheckpoint::WalkerEntry& entry : entries_) {
      report.wall_seconds =
          std::max(report.wall_seconds, entry.result.stats.seconds);
    }
  }
  // Cancellation wins the attribution tie when walkers observed several
  // sources; preemption outranks the deadline (the preempted run must
  // surrender its checkpoint even when its deadline fired on the same
  // poll).  Only the external sources count: a race loser cut by the
  // pool's own completion flag records kChained.
  const auto observed = [this](core::StopCause cause) {
    return std::ranges::any_of(entries_, [cause](const auto& entry) {
      return entry.result.stop_cause == cause;
    });
  };
  for (const core::StopCause cause :
       {core::StopCause::kCancel, core::StopCause::kPreempted,
        core::StopCause::kDeadline}) {
    if (observed(cause)) {
      report.interrupt_cause = cause;
      report.interrupted = true;
      break;
    }
  }
  if (report.interrupt_cause == core::StopCause::kPreempted &&
      options_.checkpoint_out != nullptr &&
      std::ranges::none_of(entries_, [](const auto& entry) {
        return entry.result.solved;
      })) {
    // A failed assembly leaves *checkpoint_out empty: the report still
    // says kPreempted, and the caller reruns from its last resume point.
    assemble_checkpoint();
  }

  report.walkers.reserve(k_);
  for (std::size_t id = 0; id < k_; ++id) {
    report.walkers.push_back({.walker_id = id,
                              .result = std::move(entries_[id].result),
                              .injected_faults = entries_[id].injected_faults});
    if (report.walkers[id].failed()) ++report.failed_walkers;
    report.faults_injected += report.walkers[id].injected_faults;
  }
  // The winner: the race's CAS winner under kThreads; in a sequential race,
  // the solved walker with the fewest iterations (the one that would have
  // signalled completion first on an iteration-synchronous machine), the
  // lower id breaking ties.
  std::size_t winner = kNoWinner;
  if (options_.termination == Termination::kFirstFinisher) {
    if (threaded_) {
      winner = winner_.load(std::memory_order_acquire);
    } else {
      for (const WalkerOutcome& w : report.walkers) {
        if (w.result.solved &&
            (winner == kNoWinner || w.result.stats.iterations <
                                        report.walkers[winner]
                                            .result.stats.iterations)) {
          winner = w.walker_id;
        }
      }
    }
  }
  if (winner != kNoWinner) {
    report.winner = winner;
    report.solved = true;
    report.best = report.walkers[winner].result;
    report.time_to_solution_seconds =
        threaded_ ? static_cast<double>(solution_time_us_.load(
                        std::memory_order_acquire)) /
                        1e6
                  : report.best.stats.seconds;
  } else {
    // Nobody won (kBestAfterBudget, or a race without a winner): report
    // the best configuration reached — a walker may still have solved
    // after losing the race, so any solved result comes first.  The
    // pool's wall clock doubles as the time-to-result, also on cancelled
    // or deadline-expired runs, where `best` is the anytime answer.
    select_best_after_budget(report);
    report.time_to_solution_seconds = report.wall_seconds;
  }
  report.comm_publishes = comm_.publishes();
  report.elite_accepted = comm_.accepted();
  report.comm_adoptions = comm_.adoptions();
  return report;
}

}  // namespace detail
}  // namespace cspls::parallel
