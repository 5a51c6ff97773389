#include "parallel/job_execution.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "csp/problem.hpp"

namespace cspls::parallel {

namespace {

core::Params params_for(const csp::Problem& prototype,
                        const std::optional<core::Params>& params) {
  return params.has_value() ? *params
                            : core::Params::from_hints(
                                  prototype.tuning(),
                                  prototype.num_variables());
}

/// Best-cost selection over completed walks (Termination::kBestAfterBudget
/// and the no-winner fallback of the threaded race): prefer any solved
/// result, then any survivor over a crashed walker, then the lowest cost,
/// first index breaking ties.  On an all-failed pool this still selects a
/// (failed) result so the report stays structured.
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

/// Crash-containment roll-up shared by every return path.
void tally_failures(MultiWalkReport& report) {
  report.failed_walkers = 0;
  report.faults_injected = 0;
  for (const auto& w : report.walkers) {
    if (w.failed()) ++report.failed_walkers;
    report.faults_injected += w.injected_faults;
  }
}

}  // namespace

MultiWalkReport resolve_emulated_race(std::vector<WalkerOutcome> walkers) {
  MultiWalkReport report;
  report.walkers = std::move(walkers);
  std::uint64_t best_iters = UINT64_MAX;
  csp::Cost best_cost = csp::kInfiniteCost;
  std::size_t best_id = kNoWinner;
  double wall = 0.0;
  for (const auto& w : report.walkers) {
    wall = std::max(wall, w.result.stats.seconds);
    if (w.result.solved) {
      if (w.result.stats.iterations < best_iters) {
        best_iters = w.result.stats.iterations;
        best_id = w.walker_id;
      }
    } else if (best_id == kNoWinner && w.result.cost < best_cost) {
      best_cost = w.result.cost;
    }
  }
  report.wall_seconds = wall;
  if (best_id != kNoWinner) {
    report.solved = true;
    report.winner = best_id;
    for (const auto& w : report.walkers) {
      if (w.walker_id == best_id) {
        report.best = w.result;
        report.time_to_solution_seconds = w.result.stats.seconds;
        break;
      }
    }
  } else {
    for (const auto& w : report.walkers) {
      if (w.result.cost <= best_cost) {
        report.best = w.result;
        break;
      }
    }
    report.time_to_solution_seconds = wall;
  }
  tally_failures(report);
  return report;
}

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
  // Every configuration a caller hands in must be a permutation of the
  // instance's values before any kernel reads it: kernels index their
  // tables by value, so a foreign value reads out of bounds, and a repeated
  // one walks a space that holds no solution.
  const auto require_permutation = [&](std::span<const int> values,
                                       const std::string& member) {
    if (!csp::is_permutation_of(values, prototype.values())) {
      throw std::invalid_argument(
          "WalkerPoolOptions: " + member + " is not a permutation of the " +
          std::to_string(prototype.num_variables()) + " values of \"" +
          std::string(prototype.name()) + "\"");
    }
  };
  if (options_.warm_start.has_value()) {
    require_permutation(*options_.warm_start, "warm_start");
  }
  if (options_.resume.has_value()) {
    const PoolCheckpoint& resume = *options_.resume;
    for (std::size_t i = 0; i < resume.walkers.size(); ++i) {
      if (resume.walkers[i].stage != PoolCheckpoint::WalkerStage::kRunning) {
        continue;
      }
      const std::string walker = "resume.walkers[" + std::to_string(i) + "]";
      const core::Checkpoint& checkpoint = resume.walkers[i].checkpoint;
      require_permutation(checkpoint.values, walker + ".checkpoint.values");
      require_permutation(checkpoint.best, walker + ".checkpoint.best");
      // Xoshiro256::from_state would silently swap an all-zero state for
      // the default stream: the resumed walk would not be the captured one.
      if (std::ranges::all_of(checkpoint.rng_state,
                              [](std::uint64_t word) { return word == 0; })) {
        throw std::invalid_argument(
            "WalkerPoolOptions: " + walker +
            ".checkpoint.rng_state is all-zero, which is not a xoshiro256** "
            "state");
      }
    }
    for (std::size_t i = 0; i < resume.elite.size(); ++i) {
      if (resume.elite[i].has_entry) {
        require_permutation(resume.elite[i].values,
                            "resume.elite[" + std::to_string(i) + "].values");
      }
    }
    if (resume.walkers.size() != k_) {
      throw std::invalid_argument(
          "WalkerPoolOptions: resume checkpoint has " +
          std::to_string(resume.walkers.size()) + " walkers but the pool has " +
          std::to_string(k_));
    }
    if (resume.elite.size() != comm_.num_slots()) {
      throw std::invalid_argument(
          "WalkerPoolOptions: resume checkpoint has " +
          std::to_string(resume.elite.size()) + " elite slots but the "
          "communication policy allocates " +
          std::to_string(comm_.num_slots()));
    }
    // Every cost the checkpoint states must be the cost of its
    // configuration, evaluated on one clone: a lowered cost would let a
    // report claim a solve its solution does not have.
    const auto probe = prototype.clone();
    const auto require_cost = [&](std::span<const int> values,
                                  csp::Cost cost, const std::string& member) {
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
    const std::uint64_t max_freeze = std::max(
        engine_.params().freeze_loc_min, engine_.params().freeze_swap);
    for (std::size_t i = 0; i < resume.walkers.size(); ++i) {
      const PoolCheckpoint::WalkerEntry& entry = resume.walkers[i];
      const std::string walker = "resume.walkers[" + std::to_string(i) + "]";
      if (entry.stage == PoolCheckpoint::WalkerStage::kRunning) {
        const core::Checkpoint& checkpoint = entry.checkpoint;
        require_cost(checkpoint.values, checkpoint.cost,
                     walker + ".checkpoint.cost");
        require_cost(checkpoint.best, checkpoint.best_cost,
                     walker + ".checkpoint.best_cost");
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
      } else if (entry.stage == PoolCheckpoint::WalkerStage::kDone) {
        // A finished walker is replayed verbatim, so its result must be a
        // walk this instance could have reported.  No solution means the
        // walker failed before walking, which solves nothing.
        const core::Result& result = entry.result;
        if (!result.solution.empty()) {
          require_permutation(result.solution, walker + ".result.solution");
          require_cost(result.solution, result.cost, walker + ".result.cost");
        }
        if (result.solved != (!result.solution.empty() &&
                              result.cost <= engine_.params().target_cost)) {
          throw std::invalid_argument(
              "WalkerPoolOptions: " + walker + ".result says solved=" +
              (result.solved ? "true" : "false") +
              ", which its solution and cost contradict");
        }
      }
    }
    for (std::size_t i = 0; i < resume.elite.size(); ++i) {
      if (resume.elite[i].has_entry) {
        require_cost(resume.elite[i].values, resume.elite[i].cost,
                     "resume.elite[" + std::to_string(i) + "].cost");
      }
    }
    // Restore the communication state before any walker runs, so the first
    // publish/adopt of the resumed run sees exactly the preempted state.
    comm_.restore_counters(resume.comm_clock, resume.comm_adoptions);
    for (std::size_t i = 0; i < resume.elite.size(); ++i) {
      comm_.slot(i).restore(resume.elite[i]);
    }
  }
  report_.walkers.resize(k_);
  walker_checkpoints_.resize(k_);
  walker_started_.assign(k_, 0);
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
  if (result.stop_cause == core::StopCause::kCancel) {
    external_cancel_hit_.store(true, std::memory_order_relaxed);
  } else if (result.stop_cause == core::StopCause::kDeadline) {
    external_deadline_hit_.store(true, std::memory_order_relaxed);
  } else if (result.stop_cause == core::StopCause::kPreempted) {
    preempt_hit_.store(true, std::memory_order_relaxed);
  }
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
  WalkerOutcome& out = report_.walkers[id];
  out.walker_id = id;
  // A walker that already finished before the pool was preempted replays
  // its recorded outcome verbatim — no clone, no RNG draws, no fault
  // probes beyond those its original run already burned.
  const PoolCheckpoint::WalkerEntry* resume_entry =
      options_.resume.has_value() ? &options_.resume->walkers[id] : nullptr;
  if (resume_entry != nullptr &&
      resume_entry->stage == PoolCheckpoint::WalkerStage::kDone) {
    out.result = resume_entry->result;
    out.injected_faults = resume_entry->injected_faults;
    note_completion(id, out.result);
    return;
  }
  // The start gate comes after the replay on purpose: the replay is free
  // (no clone, no draws) and under sequential communication the restored
  // elite state already holds its publishes, so skipping it would break the
  // byte-identity of a later resume.  A walker the gate stops stays kPending
  // in a checkpoint and resumes from its untouched stream.
  if (const core::StopCause cut = start_gate();
      cut != core::StopCause::kNone) {
    out.result.interrupted = true;
    out.result.stop_cause = cut;
    note_completion(id, out.result);
    return;
  }
  walker_started_[id] = 1;
  // Each walker owns its fault session, exactly like its RNG stream, so
  // probe counts are deterministic under every scheduling mode.  Production
  // builds never arm it: the sites compile to no-ops.
  util::fault::Session session(
      util::fault::kCompiledIn ? &options_.faults : nullptr, id);
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
    if (resume_entry != nullptr &&
        resume_entry->stage == PoolCheckpoint::WalkerStage::kRunning) {
      hooks.resume = &resume_entry->checkpoint;
    }
    if (options_.checkpoint_out != nullptr) {
      hooks.checkpoint_out = &walker_checkpoints_[id];
    }
    core::Result result = engine_.solve(*problem, rng, walker_token(), hooks);
    note_completion(id, result);
    out.result = std::move(result);
  } catch (const std::exception& e) {
    out.result = core::Result{};
    out.result.stop_cause = core::StopCause::kFailed;
    out.result.error = e.what();
  } catch (...) {
    out.result = core::Result{};
    out.result.stop_cause = core::StopCause::kFailed;
    out.result.error = "unknown exception";
  }
  out.injected_faults = session.fired();
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

bool JobExecution::assemble_checkpoint(const MultiWalkReport& report) {
  PoolCheckpoint cp;
  cp.walkers.resize(k_);
  const std::size_t n = prototype_.num_variables();
  for (std::size_t id = 0; id < k_; ++id) {
    const WalkerOutcome& out = report.walkers[id];
    PoolCheckpoint::WalkerEntry& entry = cp.walkers[id];
    std::optional<core::Checkpoint>& captured = walker_checkpoints_[id];
    if (captured.has_value()) {
      // Validate the capture before trusting it with a future resume: the
      // sizes and the configuration/cost invariant the resume constructor
      // checks.  A torn capture (the checkpoint_capture corrupt fault, or
      // any bug producing inconsistent state) fails here and degrades the
      // whole preemption instead of planting a time bomb in the requeue.
      const core::Checkpoint& c = *captured;
      if (c.values.size() != n || c.best.size() != n ||
          c.tabu_until.size() != n) {
        return false;
      }
      const auto probe = prototype_.clone();
      probe->assign(c.values);
      if (probe->total_cost() != c.cost) return false;
      entry.stage = PoolCheckpoint::WalkerStage::kRunning;
      entry.checkpoint = std::move(*captured);
    } else if (out.result.stop_cause == core::StopCause::kPreempted) {
      if (walker_started_[id] != 0) {
        // Started, preempted, but produced no checkpoint: the capture
        // itself failed (the checkpoint_capture throw fault, or an
        // allocation failure mid-copy).
        return false;
      }
      entry.stage = PoolCheckpoint::WalkerStage::kPending;
    } else if (walker_started_[id] != 0 ||
               (options_.resume.has_value() &&
                options_.resume->walkers[id].stage ==
                    PoolCheckpoint::WalkerStage::kDone)) {
      if (out.result.interrupted) {
        // Mixed external interruption (this walker observed the deadline
        // or a chained flag while others were preempted): no consistent
        // resumable state exists.
        return false;
      }
      entry.stage = PoolCheckpoint::WalkerStage::kDone;
      entry.result = out.result;
      entry.injected_faults = out.injected_faults;
    } else {
      entry.stage = PoolCheckpoint::WalkerStage::kPending;
    }
  }
  for (std::size_t i = 0; i < comm_.num_slots(); ++i) {
    cp.elite.push_back(comm_.slot(i).snapshot());
  }
  cp.comm_clock = comm_.now();
  cp.comm_adoptions = comm_.adoptions();
  options_.checkpoint_out->emplace(std::move(cp));
  return true;
}

MultiWalkReport JobExecution::finalize() {
  // Cancellation wins the attribution tie when walkers observed several
  // sources; preemption outranks the deadline (the preempted run must
  // surrender its checkpoint even when its deadline fired on the same
  // poll).
  const core::StopCause interrupt_cause =
      external_cancel_hit_.load(std::memory_order_relaxed)
          ? core::StopCause::kCancel
      : preempt_hit_.load(std::memory_order_relaxed)
          ? core::StopCause::kPreempted
      : external_deadline_hit_.load(std::memory_order_relaxed)
          ? core::StopCause::kDeadline
          : core::StopCause::kNone;

  MultiWalkReport report;
  if (!threaded_ && options_.termination == Termination::kFirstFinisher) {
    report = resolve_emulated_race(std::move(report_.walkers));
  } else {
    report = std::move(report_);
    if (!threaded_) {
      // Emulated machine's wall clock: all walkers start together and the
      // pool stops when the slowest one exhausts its budget.
      double wall = 0.0;
      for (const auto& w : report.walkers) {
        wall = std::max(wall, w.result.stats.seconds);
      }
      report.wall_seconds = wall;
    } else {
      report.wall_seconds = watch_.elapsed_seconds();
    }

    if (race_) {
      const std::size_t win = winner_.load(std::memory_order_acquire);
      report.winner = win;
      report.solved = win != kNoWinner;
      if (report.solved) {
        report.best = report.walkers[win].result;
        report.time_to_solution_seconds =
            static_cast<double>(
                solution_time_us_.load(std::memory_order_acquire)) /
            1e6;
      } else {
        // Nobody flipped the flag: report the best configuration reached.
        // (A walker may still have solved after losing the race; prefer
        // any solved result.)
        select_best_after_budget(report);
        report.time_to_solution_seconds = report.wall_seconds;
      }
    } else {
      // kBestAfterBudget (and the non-racing threaded case): the pool's
      // wall clock doubles as the time-to-result — also on cancelled or
      // deadline-expired runs, where `best` is the anytime answer and the
      // times say how long the pool actually had.
      select_best_after_budget(report);
      report.time_to_solution_seconds = report.wall_seconds;
    }
    tally_failures(report);
  }
  report.comm_publishes = comm_.publishes();
  report.elite_accepted = comm_.accepted();
  report.comm_adoptions = comm_.adoptions();
  report.interrupt_cause = interrupt_cause;
  report.interrupted = interrupt_cause != core::StopCause::kNone;
  if (interrupt_cause == core::StopCause::kPreempted &&
      options_.checkpoint_out != nullptr && !report.solved) {
    // A failed assembly leaves *checkpoint_out empty: the preemption
    // degrades to a plain interrupt and the caller requeues cold.
    (void)assemble_checkpoint(report);
  }
  return report;
}

}  // namespace detail
}  // namespace cspls::parallel
