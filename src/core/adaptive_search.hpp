// The Adaptive Search constraint-based local-search engine.
//
// Re-implementation of the method of Codognet & Diaz (SAGA'01, MIC'03) that
// the paper parallelizes.  One iteration:
//
//   1. if total cost reached the target, stop (solution found);
//   2. select the non-tabu variable with the highest projected error
//      (one bulk cost_on_all_variables call; tabu filter fused into the
//      scan), breaking ties uniformly at random;
//   3. evaluate every swap of that variable with another position and keep
//      the best (one bulk best_swap_for call), ties broken uniformly at
//      random;
//   4. if the best swap strictly improves the total cost, commit it
//      (optionally freezing both variables for freeze_swap iterations);
//   5. otherwise the variable sits at a local minimum: with probability
//      prob_accept_local_min commit the best non-improving move anyway
//      (plateau escape), else mark the variable tabu for freeze_loc_min
//      iterations; once reset_limit variables are simultaneously marked,
//      partially reset the configuration (shuffle a reset_fraction subset);
//   6. after restart_limit iterations, restart from a fresh random
//      configuration (up to max_restarts times).
//
// The engine is deliberately single-threaded and share-nothing; parallelism
// lives one layer up (parallel/walker_pool.hpp) exactly as in the paper, where
// "each process is an independent search engine and there is no communication
// between the simultaneous computations" except for completion.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <span>

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/stop_token.hpp"
#include "csp/problem.hpp"
#include "util/rng.hpp"

namespace cspls::util::fault {
class Session;
}  // namespace cspls::util::fault

namespace cspls::core {

/// Optional extension points (all disabled by default).  They implement the
/// paper's "future work" section — dependent multi-walk with inter-process
/// communication — and passive instrumentation, without contaminating the
/// independent-walk hot path.
struct Hooks {
  /// Called when a partial reset is about to happen.  If it returns true the
  /// hook has replaced the configuration itself (e.g. adopted an elite
  /// configuration) and the default random partial reset is skipped.
  std::function<bool(csp::Problem&, util::Xoshiro256&)> on_reset;

  /// Asynchronous gossip: called every `mid_walk_period` iterations *while
  /// walking* (before that iteration's variable selection), not only when
  /// the reset policy fires.  If it returns true the hook has replaced the
  /// configuration wholesale (adopted a neighbour's configuration); the
  /// engine then recomputes the total cost, invalidates its error-vector
  /// cache and clears the tabu/marking state exactly as after a reset-time
  /// adoption — without counting a reset — so the next scan observes the
  /// adopted configuration consistently.  A false return must leave the
  /// configuration untouched (the caches stay valid).
  std::function<bool(csp::Problem&, util::Xoshiro256&)> mid_walk;
  std::uint64_t mid_walk_period = 0;  ///< 0 disables mid-walk adoption

  /// Observation callback fired every `observer_period` iterations with the
  /// current iteration count, cost and configuration.
  std::function<void(std::uint64_t, csp::Cost, std::span<const int>)> observer;
  std::uint64_t observer_period = 0;  ///< 0 disables the observer

  /// The walk's cost series, read by the serving tier's streamed samples
  /// and by sim/anytime.hpp's curves: called with (iteration, current cost)
  /// at iteration 0 and every `sample_period` iterations after, while the
  /// walk runs.  A resumed walk skips iteration 0 (its original run took
  /// that sample), so the two runs' samples concatenate to the
  /// uninterrupted run's.  The series has no closing sample: the walk ends
  /// at Result::cost after Result::stats.iterations.  Kept separate from
  /// `observer`, which the communication policies claim for publish
  /// traffic (comm_hooks) and which carries the configuration.  Never
  /// consumes the walk's RNG stream, so sampling cannot change the outcome
  /// of a seeded run.
  std::function<void(std::uint64_t, csp::Cost)> sample;
  std::uint64_t sample_period = 0;  ///< 0 disables sampling

  /// Armed fault-injection session for this walk (null = no injection).
  /// Probed once per iteration at the `walker_iteration` site; a kCorrupt
  /// action scrambles the configuration (detected corruption), kThrow
  /// propagates out of solve() for the pool's containment to record.  In
  /// builds without CSPLS_FAULT_INJECTION the probe is an inline no-op.
  util::fault::Session* fault = nullptr;

  /// Liveness signal for the serving layer's watchdog: bumped at the start
  /// of every walk and every 1024 iterations.  A stalled walker (wedged in
  /// a bulk cost hook, an injected stall, a scheduler pathology) stops
  /// bumping, which is exactly what the watchdog detects.
  std::atomic<std::uint64_t>* heartbeat = nullptr;

  /// When non-null, the first walk starts from this configuration instead
  /// of the initial random one (retry-with-checkpoint: the service reseeds
  /// a retried job from the best configuration of the failed attempt).
  /// The initial randomize(rng) still runs first, so the walk's RNG stream
  /// position — and therefore every later draw — is unchanged by warm
  /// starting.  Restarts (step 6) randomize as usual.
  const std::vector<int>* warm_start = nullptr;

  /// When non-null, the walk *resumes* from this checkpoint instead of
  /// starting fresh: the initial randomize is skipped, the configuration,
  /// best-so-far, tabu state, counters and RNG position are restored, and
  /// the walk continues byte-identically to the run that was never
  /// interrupted.  Overrides warm_start (exact resume subsumes reseeding).
  const Checkpoint* resume = nullptr;

  /// When non-null and the stop poll fires with StopCause::kPreempted, the
  /// engine captures its state at that safe point (before any draw of the
  /// pending iteration) and emplaces it here before returning the
  /// interrupted result.  Left untouched for every other stop cause, and
  /// emptied on a capture failure (the `checkpoint_capture` throw fault, or
  /// an allocation failure while copying): a preempted walk without a
  /// checkpoint cannot be resumed where it stopped, so the pool hands out
  /// none and callers rerun from their last resume point.
  std::optional<Checkpoint>* checkpoint_out = nullptr;
};

class AdaptiveSearch {
 public:
  explicit AdaptiveSearch(Params params) noexcept : params_(params) {}

  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Run one (restarted) walk on `problem` using `rng`.
  ///
  /// `stop` is polled once per iteration; when it fires — an external
  /// cancel flag flipped (first-finisher termination of the parallel
  /// engine, or a service-level cancel) or a steady-clock deadline passed
  /// (time-budgeted runs) — the walk returns early with Result::interrupted
  /// set.  The problem is left bound to the best configuration found, so an
  /// interrupted run is still a valid anytime result.  A default
  /// (never-firing) token reproduces the historical unstoppable run
  /// byte-for-byte.
  Result solve(csp::Problem& problem, util::Xoshiro256& rng,
               StopToken stop = {}, const Hooks& hooks = {}) const;

  /// Convenience: build an engine with the model's own tuning defaults.
  static AdaptiveSearch with_defaults(const csp::Problem& problem) {
    return AdaptiveSearch(
        Params::from_hints(problem.tuning(), problem.num_variables()));
  }

 private:
  Params params_;
};

}  // namespace cspls::core
