// Perfect Square placement (CSPLib prob009), the paper's third CSPLib
// benchmark.
//
// Tile a master square of side S exactly with a given list of squares
// (sum of their areas equals S²).  The original C model is unpublished, so
// we use the standard permutation + decoder formulation from the
// packing-metaheuristics literature, which keeps the problem inside
// Adaptive Search's native permutation frame:
//
//   - a configuration is a *placement order* (permutation of square ids);
//   - a deterministic skyline bottom-left decoder places the squares in that
//     order, each at the position minimising (y, x) on the current skyline;
//   - the cost charges, per placement, the area it buries below itself
//     (columns lower than the chosen support level can never be filled by a
//     skyline decoder) plus any area protruding above the master square's
//     lid.
//
// Because the areas sum to S², the final buried area equals the protruding
// area, so the cost is twice the waste and zero exactly on perfect tilings;
// charging waste at creation time gives the search a positional gradient.
//
// Probes run the decoder with an *incremental skyline*: every commit
// captures, per order position, the skyline (and accumulated waste) before
// that placement.  A two-element swap at (i, j) cannot affect placements
// below min(i, j), so cost_if_swap / best_swap_for resume decoding from
// that checkpoint instead of re-packing from scratch, while producing
// bit-identical placements and waste charges to a full decode.  Within a
// decode, a placement only evaluates the windows that can be bottom-left
// (x = 0 or a column whose left neighbour is higher).  Within best_swap_for,
// a candidate's decode stops as soon as its waste exceeds the best candidate
// so far, which can then no longer win, tie or draw, and a candidate that
// swaps two squares of one size costs the current total without a decode.
//
// Instances: quadtree-generated classes (exactly solvable by construction,
// hardness tuned by split count) and the classic order-21 simple perfect
// squared square of side 112 (Duijvestijn 1978).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

/// A perfect-square placement instance: master side and square sizes.
struct PerfectSquareInstance {
  int side = 0;
  std::vector<int> sizes;
  std::string label;

  /// Exactly-solvable instance built by recursively splitting squares into
  /// four half-size quadrants, starting from one square of side 2^side_log2.
  /// `splits` controls the square count (n = 1 + 3*splits).  Deterministic
  /// in `seed`.
  static PerfectSquareInstance quadtree(int side_log2, int splits,
                                        std::uint64_t seed);

  /// Duijvestijn's order-21 simple perfect squared square (side 112).
  static PerfectSquareInstance duijvestijn21();
};

/// One decoded placement (for reporting and verification).
struct SquarePlacement {
  int x = 0;
  int y = 0;
  int size = 0;
  int id = 0;
};

class PerfectSquare final : public csp::PermutationProblem {
 public:
  explicit PerfectSquare(PerfectSquareInstance instance);

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::string instance_description() const override;
  [[nodiscard]] std::unique_ptr<csp::Problem> clone() const override;

  [[nodiscard]] csp::Cost full_cost() const override;
  [[nodiscard]] csp::Cost cost_on_variable(std::size_t i) const override;
  [[nodiscard]] csp::Cost cost_if_swap(std::size_t i,
                                       std::size_t j) const override;
  void cost_on_all_variables(std::span<csp::Cost> out) const override;
  std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                              std::size_t& best_j, csp::Cost& best_cost,
                              std::size_t& ties) const override;
  [[nodiscard]] bool verify(std::span<const int> values) const override;
  [[nodiscard]] csp::TuningHints tuning() const noexcept override;

  [[nodiscard]] const PerfectSquareInstance& instance() const noexcept {
    return instance_;
  }

  /// Placements decoded from the current configuration.
  [[nodiscard]] const std::vector<SquarePlacement>& placements() const noexcept {
    return placements_;
  }

  /// ASCII rendering of the current packing (one char per id, '.' empty).
  [[nodiscard]] std::string packing_to_string() const;

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// Place one square of size `s` on the skyline `h` (bottom-left rule, over
  /// the windows starting at a downward skyline edge); charges buried +
  /// overflow waste, raises the supporting columns, and reports the chosen
  /// corner.
  csp::Cost place(std::size_t s, std::vector<int>& h, std::size_t& out_x,
                  int& out_y) const;

  /// Run the skyline decoder on `order` starting at order position `first`,
  /// resuming from the prefix checkpoint captured on the last commit
  /// (`first` must be 0 unless checkpoints_valid_).  Optionally fills
  /// per-order-position waste and placements from `first` on (earlier
  /// entries are untouched — they belong to the unchanged prefix) and, when
  /// `capture` is set, refreshes the prefix checkpoints (callers must pass
  /// the *current* configuration in that case).  Returns total waste.  A
  /// probe may pass a `bound`: once the waste exceeds it, the decode stops
  /// and returns the partial total, which already exceeds it (waste per
  /// placement is never negative).  Callers that fill any output or capture
  /// leave it unbounded.
  [[nodiscard]] csp::Cost decode_from(
      std::size_t first, std::span<const int> order,
      std::vector<csp::Cost>* overflow_by_pos,
      std::vector<SquarePlacement>* placements, bool capture,
      csp::Cost bound = csp::kInfiniteCost) const;

  /// Full decode, no checkpoint refresh (probes, full_cost).
  [[nodiscard]] csp::Cost decode(std::span<const int> order,
                                 std::vector<csp::Cost>* overflow_by_pos,
                                 std::vector<SquarePlacement>* placements) const;

  PerfectSquareInstance instance_;
  std::string name_ = "perfect-square";
  std::vector<csp::Cost> overflow_by_pos_;      ///< per order position
  std::vector<SquarePlacement> placements_;     ///< decoded, current config
  mutable std::vector<int> scratch_order_;      ///< probe buffer
  mutable std::vector<int> heights_;            ///< decoder skyline buffer
  /// Incremental-skyline state: checkpoint row p is the skyline *before*
  /// placing order position p of the current configuration, with the waste
  /// accumulated so far in checkpoint_err_[p].  A probe whose order agrees
  /// with the current one below position p resumes there instead of
  /// re-decoding the whole packing.  Rebuilt on every commit (on_rebind /
  /// did_swap); probes never touch it.
  mutable std::vector<int> checkpoint_h_;       ///< n rows of `side` columns
  mutable std::vector<csp::Cost> checkpoint_err_;
  bool checkpoints_valid_ = false;
};

}  // namespace cspls::problems
