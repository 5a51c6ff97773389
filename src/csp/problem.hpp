// The constraint-model abstraction consumed by the Adaptive Search engine.
//
// This is a faithful C++ rendering of the hook contract of the original
// Adaptive Search C library (Codognet & Diaz, freeware at
// cri-dist.univ-paris1.fr/diaz/adaptive/): a model provides
//
//   Cost_Of_Solution  -> full_cost()         (recompute from scratch)
//   Cost_On_Variable  -> cost_on_variable()  (projected error of one variable)
//   Cost_If_Swap      -> cost_if_swap()      (total cost after a hypothetical
//                                             swap, usually incremental)
//   Executed_Swap     -> did_swap()          (commit notification so the model
//                                             can update cached aggregates)
//   Reset             -> randomize()/on_rebind()
//
// All benchmarks of the paper (and of the original library) are *permutation*
// problems: the search state is a permutation of a fixed multiset of values
// and the only move is a swap of two positions.  PermutationProblem owns that
// state; concrete models layer incremental cost structures on top.
//
// Instances are stateful and deliberately *not* thread-safe: the paper's
// parallel scheme is share-nothing (one independent search engine per
// process), so each parallel walker clones its own instance (see clone()).
#pragma once

#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "csp/cost.hpp"
#include "csp/tuning.hpp"
#include "util/rng.hpp"

namespace cspls::csp {

class Problem {
 public:
  virtual ~Problem() = default;

  /// Identifier used by the registry, the harness tables and CSV output.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Human-readable instance description (e.g. "magic-square 20x20").
  [[nodiscard]] virtual std::string instance_description() const = 0;

  /// Number of decision variables.
  [[nodiscard]] virtual std::size_t num_variables() const noexcept = 0;

  /// Deep copy for share-nothing parallel walkers.
  [[nodiscard]] virtual std::unique_ptr<Problem> clone() const = 0;

  /// Current assignment (one value per variable).
  [[nodiscard]] virtual std::span<const int> values() const noexcept = 0;

  /// Draw a fresh random configuration and rebuild incremental state.
  /// Returns the full cost of the new configuration.
  virtual Cost randomize(util::Xoshiro256& rng) = 0;

  /// Replace the configuration wholesale (e.g. adopting an elite
  /// configuration in dependent multi-walk) and rebuild incremental state.
  virtual Cost assign(std::span<const int> values) = 0;

  /// Cached total cost of the current configuration (kept in sync by swaps).
  [[nodiscard]] virtual Cost total_cost() const noexcept = 0;

  /// Full recomputation of the total cost, ignoring caches.  The engine never
  /// needs this on the hot path; tests use it to validate incrementality.
  [[nodiscard]] virtual Cost full_cost() const = 0;

  /// Projected error of variable `i` under the current configuration: how
  /// much variable `i` "contributes" to the total cost.  Higher = worse.
  [[nodiscard]] virtual Cost cost_on_variable(std::size_t i) const = 0;

  /// Total cost the configuration would have after swapping positions i, j.
  /// Must not mutate observable state.
  [[nodiscard]] virtual Cost cost_if_swap(std::size_t i, std::size_t j) const = 0;

  // --- Batched hot-path hooks -------------------------------------------
  //
  // One Adaptive Search iteration needs (a) the projected error of *every*
  // variable and (b) the argmin over *every* swap partner of the selected
  // variable.  Driving those through the scalar virtuals above costs 2n-1
  // virtual calls per iteration; the engine instead calls the two bulk hooks
  // below (two virtual calls total) and kernels override them with versions
  // that share work across the whole scan.  The defaults loop the scalar
  // virtuals, so a model is complete without overriding anything.

  /// Fill `out[i] = cost_on_variable(i)` for every variable
  /// (`out.size() == num_variables()`).  Must not consume RNG and must not
  /// mutate observable state; overrides must produce bit-identical values to
  /// the scalar virtual so search trajectories are path-independent.
  virtual void cost_on_all_variables(std::span<Cost> out) const;

  /// Scan the candidate swaps (x, j) for j = 0..n-1, j != x, in ascending j
  /// order, and select the minimum of cost_if_swap(x, j) with reservoir
  /// tie-breaking (`rng.below(ties) == 0` adopts the newcomer) — exactly the
  /// engine's historical inline loop, so a fixed seed walks the identical
  /// trajectory through the default and through any override.  Outputs the
  /// chosen partner in `best_j` (num_variables() when no candidate exists),
  /// its total cost in `best_cost` (kInfiniteCost when none) and the number
  /// of cost-optimal ties in `ties`; returns the number of candidate cost
  /// evaluations performed (the engine accounts them as cost_evaluations).
  virtual std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                      std::size_t& best_j, Cost& best_cost,
                                      std::size_t& ties) const;

  /// Commit the swap of positions i and j, update cached structures, and
  /// return the new total cost (must equal what cost_if_swap(i, j) returned).
  virtual Cost swap(std::size_t i, std::size_t j) = 0;

  /// Model-specific partial reset (the original library lets every
  /// benchmark override its Reset hook).  Perturbs roughly `fraction` of the
  /// configuration, rebuilds incremental state, and returns the new total
  /// cost.  Default (PermutationProblem): shuffle a random subset of
  /// positions.  Models may substitute a structure-preserving move (e.g.
  /// all-interval reverses a random segment, which disturbs only two
  /// adjacent differences).
  virtual Cost reset_perturbation(double fraction, util::Xoshiro256& rng) = 0;

  /// Independent feasibility check of an arbitrary assignment.  Shares *no*
  /// code with the cost model; used to cross-validate `cost == 0`.
  [[nodiscard]] virtual bool verify(std::span<const int> values) const = 0;

  /// Solver tuning defaults for this model (mirrors the per-benchmark
  /// parameter choices shipped with the original library).
  [[nodiscard]] virtual TuningHints tuning() const noexcept {
    return TuningHints{};
  }
};

/// Base class handling permutation state, generic randomize/assign/swap and a
/// (slow but always-correct) default cost_if_swap.  Concrete models:
///   - supply the canonical value multiset via the constructor,
///   - implement full_cost() / cost_on_variable(),
///   - override cost_if_swap()/did_swap() with incremental versions, and
///   - implement verify().
class PermutationProblem : public Problem {
 public:
  [[nodiscard]] std::size_t num_variables() const noexcept override {
    return values_.size();
  }

  [[nodiscard]] std::span<const int> values() const noexcept override {
    return values_;
  }

  Cost randomize(util::Xoshiro256& rng) override;
  Cost assign(std::span<const int> values) override;

  [[nodiscard]] Cost total_cost() const noexcept override { return cost_; }

  [[nodiscard]] Cost cost_if_swap(std::size_t i, std::size_t j) const override;

  Cost swap(std::size_t i, std::size_t j) override;

  Cost reset_perturbation(double fraction, util::Xoshiro256& rng) override;

 protected:
  /// `canonical` is the value multiset the search permutes (e.g. 1..n²).
  explicit PermutationProblem(std::vector<int> canonical);

  /// Rebuild every incremental structure from values_ and return full cost.
  /// Called after randomize()/assign(); default recomputes via full_cost().
  virtual Cost on_rebind() { return full_cost(); }

  /// Commit notification: positions i and j have just been exchanged in
  /// values_; update incremental aggregates and return the new total cost.
  /// Default recomputes from scratch.
  virtual Cost did_swap(std::size_t i, std::size_t j);

  [[nodiscard]] int value(std::size_t i) const { return values_[i]; }

  /// Mutable access for did_swap implementations needing scratch edits.
  [[nodiscard]] std::vector<int>& mutable_values() noexcept { return values_; }

  void set_cached_cost(Cost cost) noexcept { cost_ = cost; }

 private:
  std::vector<int> values_;
  Cost cost_ = 0;
};

/// Reservoir argmin used by best_swap_for implementations.  Replicates the
/// engine's historical tie-breaking byte-for-byte: strict improvement resets
/// the tie count, an exact tie draws `rng.below(ties)` and adopts on zero.
/// Overrides MUST funnel every candidate through consider() in ascending j
/// order or fixed-seed trajectories diverge between kernels.
struct SwapScan {
  Cost best_cost = kInfiniteCost;
  std::size_t best_j;
  std::size_t ties = 0;

  /// `none` is the "no candidate" sentinel (the engine passes n).
  explicit SwapScan(std::size_t none) noexcept : best_j(none) {}

  void consider(std::size_t j, Cost cost, util::Xoshiro256& rng) noexcept {
    // Single compare on the common no-improvement path; the branch split is
    // draw-for-draw identical to the historical < / == cascade.
    if (cost > best_cost) [[likely]] return;
    if (cost < best_cost) {
      best_cost = cost;
      best_j = j;
      ties = 1;
    } else {
      ++ties;
      if (rng.below(ties) == 0) best_j = j;
    }
  }

  /// Reservoir step over a staged candidate array: feed candidates
  /// j = base_j .. base_j+cand.size()-1 with costs cand[j - base_j], in
  /// order, skipping j == skip — exactly consider() on each candidate.  Pass
  /// `skip = base_j + cand.size()` (or anything outside the range) to skip
  /// nothing.  Kernels that store kInfiniteCost at the skipped position must
  /// STILL pass `skip`: when best_cost itself is still kInfiniteCost, a fed
  /// sentinel would tie and consume an RNG draw a loop skipping x never makes.
  void feed(std::size_t base_j, std::span<const Cost> cand,
            std::size_t skip, util::Xoshiro256& rng) noexcept;
};

namespace detail {

/// The scalar reference loops behind the Problem bulk-hook defaults, shared
/// with ScalarPathProblem so the reference path costs exactly one virtual call
/// per variable/candidate (like the pre-batched engine), never two.
void scalar_cost_on_all_variables(const Problem& problem, std::span<Cost> out);
std::uint64_t scalar_best_swap_for(const Problem& problem, std::size_t x,
                                   util::Xoshiro256& rng, std::size_t& best_j,
                                   Cost& best_cost, std::size_t& ties);

}  // namespace detail

/// True iff `values` is a permutation of `canonical` (order-insensitive).
[[nodiscard]] bool is_permutation_of(std::span<const int> values,
                                     std::span<const int> canonical);

}  // namespace cspls::csp
