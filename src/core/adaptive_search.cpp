#include "core/adaptive_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/fault.hpp"
#include "util/timer.hpp"

namespace cspls::core {

namespace {

using csp::Cost;

/// Mutable per-walk working state, reset on every restart.  All scratch is
/// preallocated here once: the steady-state iteration below performs zero
/// heap allocations.
struct WalkState {
  explicit WalkState(std::size_t n) : tabu_until(n, 0), errors(n, 0) {}

  void clear_tabu() {
    std::fill(tabu_until.begin(), tabu_until.end(), std::uint64_t{0});
    marks_since_reset = 0;
  }

  std::vector<std::uint64_t> tabu_until;  ///< variable frozen while > iter
  std::vector<Cost> errors;               ///< cost_on_all_variables scratch
  /// Local-minimum markings since the last (partial or full) reset; the
  /// original library's nb_var_marked counter: it accumulates until the
  /// reset_limit triggers a partial reset, it is *not* a count of currently
  /// frozen variables.
  std::uint32_t marks_since_reset = 0;
};

}  // namespace

Result AdaptiveSearch::solve(csp::Problem& problem, util::Xoshiro256& rng,
                             StopToken stop, const Hooks& hooks) const {
  const std::size_t n = problem.num_variables();
  util::Stopwatch watch;

  Result result;
  WalkState state(n);

  const Checkpoint* resume = hooks.resume;
  if (resume != nullptr && (resume->values.size() != n ||
                            resume->best.size() != n ||
                            resume->tabu_until.size() != n)) {
    throw std::invalid_argument(
        "AdaptiveSearch: checkpoint does not match the problem size");
  }

  Cost cost;
  if (resume != nullptr) {
    // Exact resume: restore the configuration and the RNG stream position
    // captured at the safe point; the initial randomize never happens (its
    // draws were consumed by the original run before capture).
    problem.assign(resume->values);
    cost = problem.total_cost();
    if (cost != resume->cost) {
      throw std::invalid_argument(
          "AdaptiveSearch: checkpoint cost does not match its configuration");
    }
    rng = util::Xoshiro256::from_state(resume->rng_state);
  } else {
    cost = problem.randomize(rng);
    if (hooks.warm_start != nullptr && hooks.warm_start->size() == n) {
      // Retry checkpoint: adopt the supplied configuration.  The randomize
      // above already consumed its draws, so the RNG stream position — and
      // every subsequent draw — is identical to a cold start.
      problem.assign(*hooks.warm_start);
      cost = problem.total_cost();
    }
    // Only a fresh walk samples iteration 0: a resumed walk's original run
    // already did.
    if (hooks.sample && hooks.sample_period != 0) hooks.sample(0, cost);
  }

  // Track the best configuration ever seen (across restarts) so the run
  // reports something useful even when it fails.
  Cost best_cost = cost;
  std::vector<int> best(problem.values().begin(), problem.values().end());
  if (resume != nullptr) {
    best_cost = resume->best_cost;
    best = resume->best;
    state.tabu_until = resume->tabu_until;
    state.marks_since_reset = resume->marks_since_reset;
    result.stats = resume->stats;
  }
  const double resumed_seconds = resume != nullptr ? resume->stats.seconds : 0.0;
  const auto note_best = [&](Cost c) {
    if (c < best_cost) {
      best_cost = c;
      const auto vals = problem.values();
      std::copy(vals.begin(), vals.end(), best.begin());
    }
  };

  // The error vector only depends on the configuration: iterations that end
  // in a tabu marking leave it untouched, so the bulk recomputation is
  // skipped until the next swap/reset/restart invalidates it.  (Purely an
  // engine-side cache — the values the scan sees are identical either way.)
  bool errors_valid = false;

  const auto partial_reset = [&] {
    ++result.stats.resets;
    if (hooks.on_reset && hooks.on_reset(problem, rng)) {
      // The hook replaced the configuration wholesale (dependent multi-walk).
      cost = problem.total_cost();
    } else {
      // Model-specific diversification (default: shuffle a random subset of
      // positions); see csp::Problem::reset_perturbation.
      cost = problem.reset_perturbation(params_.reset_fraction, rng);
    }
    errors_valid = false;
    state.clear_tabu();
    note_best(cost);
  };

  std::uint32_t restarts_done = resume != nullptr ? resume->restarts_done : 0;
  // Consumed by the first outer iteration only: the resumed walk re-enters
  // mid-walk at the captured iteration; later walks start at zero as usual.
  std::uint64_t resume_iter_in_walk =
      resume != nullptr ? resume->iter_in_walk : 0;
  bool done = false;
  while (!done) {
    if (hooks.heartbeat != nullptr) {
      hooks.heartbeat->fetch_add(1, std::memory_order_relaxed);
    }
    note_best(cost);
    std::uint64_t iter_in_walk = std::exchange(resume_iter_in_walk, 0);
    const std::uint64_t budget = walk_budget(
        params_.restart_schedule, params_.restart_limit, restarts_done);

    while (cost > params_.target_cost) {
      if (const StopCause cause = stop.poll(); cause != StopCause::kNone) {
        if (cause == StopCause::kPreempted &&
            hooks.checkpoint_out != nullptr) {
          // Safe-point capture: no draw of the pending iteration has
          // happened, so the checkpoint is a consistent between-iterations
          // snapshot.  A capture failure (the `checkpoint_capture` fault
          // site, or any allocation failure while copying state) degrades
          // to a plain interrupt with no checkpoint — never a torn one.
          try {
            const bool corrupt =
                util::fault::probe(hooks.fault,
                                   util::fault::Site::kCheckpointCapture) ==
                util::fault::Action::kCorrupt;
            Checkpoint cp;
            const auto vals = problem.values();
            cp.values.assign(vals.begin(), vals.end());
            cp.cost = cost;
            cp.best = best;
            cp.best_cost = best_cost;
            cp.tabu_until = state.tabu_until;
            cp.marks_since_reset = state.marks_since_reset;
            cp.rng_state = rng.state();
            cp.stats = result.stats;
            cp.stats.seconds = resumed_seconds + watch.elapsed_seconds();
            cp.iter_in_walk = iter_in_walk;
            cp.restarts_done = restarts_done;
            if (corrupt) cp.cost += 1;  // torn capture: fails validation
            hooks.checkpoint_out->emplace(std::move(cp));
          } catch (...) {
            hooks.checkpoint_out->reset();
          }
        }
        result.interrupted = true;
        result.stop_cause = cause;
        done = true;
        break;
      }
      if (iter_in_walk >= budget) break;  // walk exhausted
      ++iter_in_walk;
      const std::uint64_t iter = ++result.stats.iterations;

      if (hooks.heartbeat != nullptr && (iter & 1023) == 0) {
        hooks.heartbeat->fetch_add(1, std::memory_order_relaxed);
      }
      if (util::fault::probe(hooks.fault, util::fault::Site::kWalkerIteration) ==
          util::fault::Action::kCorrupt) {
        // Detected corruption: the configuration is untrusted, recover by
        // scrambling it wholesale and rebuilding every cache.
        cost = problem.reset_perturbation(1.0, rng);
        errors_valid = false;
        state.clear_tabu();
        note_best(cost);
      }

      if (hooks.observer && hooks.observer_period != 0 &&
          iter % hooks.observer_period == 0) {
        hooks.observer(iter, cost, problem.values());
      }
      if (hooks.sample && hooks.sample_period != 0 &&
          iter % hooks.sample_period == 0) {
        hooks.sample(iter, cost);
      }

      // Asynchronous gossip gate: pull a neighbour's configuration mid-walk.
      // The hook owns its RNG discipline (e.g. one chance() draw per gate);
      // on adoption the engine re-enters exactly as after a reset-time
      // adoption — recomputed cost, invalidated error cache, cleared tabu
      // state — except no reset is counted.
      if (hooks.mid_walk && hooks.mid_walk_period != 0 &&
          iter % hooks.mid_walk_period == 0 && hooks.mid_walk(problem, rng)) {
        cost = problem.total_cost();
        errors_valid = false;
        state.clear_tabu();
        note_best(cost);
        if (cost <= params_.target_cost) break;  // adopted a solution
      }

      // --- Step 2: pick the worst non-tabu variable (random tie-break). ---
      // One bulk virtual call fills the preallocated error vector (reused
      // while the configuration is unchanged); the tabu filter is fused into
      // the scan.  The bulk hook never consumes RNG, so the reservoir draws
      // below happen in the exact order of the historical per-variable loop.
      if (!errors_valid) {
        problem.cost_on_all_variables(std::span<Cost>(state.errors));
        errors_valid = true;
      }
      Cost worst_err = -1;
      std::size_t x = n;  // n = none found
      std::size_t ties = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (state.tabu_until[i] > iter) continue;
        const Cost err = state.errors[i];
        if (err < worst_err) continue;  // common case: one compare
        if (err > worst_err) {
          worst_err = err;
          x = i;
          ties = 1;
        } else {
          ++ties;
          if (rng.below(ties) == 0) x = i;
        }
      }
      if (x == n) {
        // Every variable is frozen: unblock with a partial reset.
        partial_reset();
        continue;
      }

      // --- Step 3: best swap for x (random tie-break). ---
      // Second bulk virtual call; candidate evaluations are counted inside
      // the kernel so the stats stay comparable across paths.
      Cost best_move = csp::kInfiniteCost;
      std::size_t best_j = n;
      std::size_t move_ties = 0;
      result.stats.cost_evaluations +=
          problem.best_swap_for(x, rng, best_j, best_move, move_ties);

      if (best_j != n && best_move < cost) {
        // --- Step 4: improving move. ---
        cost = problem.swap(x, best_j);
        errors_valid = false;
        ++result.stats.swaps;
        note_best(cost);
        if (params_.freeze_swap > 0) {
          state.tabu_until[x] = iter + params_.freeze_swap;
          state.tabu_until[best_j] = iter + params_.freeze_swap;
        }
        continue;
      }

      // --- Step 4b: plateau — the best move leaves the cost unchanged. ---
      if (best_j != n && best_move == cost &&
          rng.chance(params_.prob_accept_plateau)) {
        cost = problem.swap(x, best_j);
        errors_valid = false;
        ++result.stats.plateau_moves;
        if (params_.freeze_swap > 0) {
          state.tabu_until[x] = iter + params_.freeze_swap;
          state.tabu_until[best_j] = iter + params_.freeze_swap;
        }
        continue;
      }

      // --- Step 5: local minimum on x. ---
      ++result.stats.local_minima;
      if (best_j != n && params_.prob_accept_local_min > 0.0 &&
          rng.chance(params_.prob_accept_local_min)) {
        cost = problem.swap(x, best_j);
        errors_valid = false;
        note_best(cost);
        continue;
      }
      state.tabu_until[x] = iter + params_.freeze_loc_min;
      if (++state.marks_since_reset >= params_.reset_limit) {
        partial_reset();
      }
    }

    if (done || cost <= params_.target_cost) break;
    // --- Step 6: walk budget exhausted; restart if allowed. ---
    if (restarts_done >= params_.max_restarts) break;
    ++restarts_done;
    ++result.stats.restarts;
    cost = problem.randomize(rng);
    errors_valid = false;
    state.clear_tabu();
  }

  note_best(cost);
  result.solved = best_cost <= params_.target_cost;
  result.cost = best_cost;
  result.solution = std::move(best);
  // Leave the problem bound to the reported configuration.
  if (cost != best_cost) {
    problem.assign(result.solution);
  }
  result.stats.seconds = resumed_seconds + watch.elapsed_seconds();
  return result;
}

}  // namespace cspls::core
