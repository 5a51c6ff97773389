// The Costas Array Problem (CAP) — the paper's headline benchmark.
//
// A Costas array of order n is an n×n permutation matrix whose n(n-1)/2
// inter-mark vectors are pairwise distinct.  In the permutation view
// (variables V[0..n-1], a permutation of 1..n), that means: for every row
// d = 1..n-1 of the difference triangle, the values V[i+d] - V[i] are all
// different.  Cost model (as in the original library / the Diaz-Richoux-
// Codognet CAP study): per-row occurrence tables of the differences; cost =
// total surplus occurrences, zero exactly on Costas arrays.  A swap touches
// the O(n) pairs involving the two positions, so cost_if_swap is O(n).
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class Costas final : public csp::PermutationProblem {
 public:
  /// Order n (n >= 2).  Costas arrays exist for every n <= 31; the paper's
  /// experiments run n = 18..22.
  explicit Costas(std::size_t n);

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

  [[nodiscard]] std::size_t order() const noexcept { return n_; }

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// occ slot for difference `diff` in triangle row `d` (1-based row).
  [[nodiscard]] std::size_t slot(std::size_t d, int diff) const noexcept {
    return (d - 1) * stride_ + static_cast<std::size_t>(diff + static_cast<int>(n_));
  }

  /// Apply +1/-1 to the occurrence of pair (a, a+d) computed on the current
  /// values, returning the surplus-cost change.
  csp::Cost bump(std::size_t a, std::size_t d, int step,
                 const int* probe_values) const;

  /// Visit all pair starts (a, d) such that the pair {a, a+d} involves
  /// position i or position j (deduplicated); calls f(a, d).
  template <typename F>
  void for_affected_pairs(std::size_t i, std::size_t j, F&& f) const;

  std::size_t n_;
  std::size_t stride_;
  /// Lane-padded row stride of the slot tables (multiple of i32x8 lanes).
  std::size_t pstride_;
  std::string name_ = "costas";
  /// Occurrence tables, mutable for probe/rollback in cost_if_swap.
  mutable std::vector<int> occ_;
  /// best_swap_for slot tables (value-independent, built once), lane-padded
  /// (stride pstride_): for the pair {p, q}, slot = rowoff_pad_[p*ps+q] +
  /// ((diff ^ m) - m) with m = sgmask_[p*ps+q] and diff = V[q] - V[p] — the
  /// (d-1)*stride + n row offset with the diff's orientation folded into a
  /// negate mask (0 / -1), so slots cost one lane op per eight pairs with
  /// no multiply and no branch.  Padding lanes hold zeros; their computed
  /// slots are stored to scratch but never consumed.
  std::vector<std::int32_t> rowoff_pad_;
  std::vector<std::int32_t> sgmask_;
  /// best_swap_for scratch (alloc-free steady state), all lane-padded:
  /// padded copy of values(), the slots of x's pairs, the three
  /// per-candidate slot arrays and the candidate cost vector consumed by
  /// SwapScan::feed.
  mutable std::vector<std::int32_t> vals_pad_;
  mutable std::vector<std::int32_t> xslot_;
  mutable std::vector<std::int32_t> srj_;
  mutable std::vector<std::int32_t> sax_;
  mutable std::vector<std::int32_t> saj_;
  mutable std::vector<csp::Cost> cand_;
};

}  // namespace cspls::problems
