// Magic Square (CSPLib prob019), one of the paper's three CSPLib benchmarks.
//
// Place 1..n² on an n×n board so every row, column and both main diagonals
// sum to the magic constant M = n(n²+1)/2.  Model (as in the original
// Adaptive Search library): the board is a permutation of 1..n²; the cost of
// a configuration is the sum of |line_sum − M| over all 2n+2 lines; the
// projected error of a cell is the sum of the errors of the lines through it.
// Swapping two cells touches at most 6 lines, so cost_if_swap is O(1).
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class MagicSquare final : public csp::PermutationProblem {
 public:
  /// An n×n instance (n >= 3).
  explicit MagicSquare(std::size_t n);

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

  [[nodiscard]] std::size_t side() const noexcept { return n_; }
  [[nodiscard]] csp::Cost magic_constant() const noexcept { return magic_; }

  /// Render the current board ("  1  12   8 ..." rows) for examples.
  [[nodiscard]] std::string board_to_string() const;

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// Line ids: 0..n-1 rows, n..2n-1 cols, 2n main diag, 2n+1 anti diag.
  static constexpr std::size_t kNoLine = static_cast<std::size_t>(-1);

  [[nodiscard]] csp::Cost line_error(std::size_t line) const noexcept {
    return line_err_[line];
  }

  /// |error| change of `line` if its sum moved by `change`.
  [[nodiscard]] csp::Cost line_error_after(std::size_t line,
                                           csp::Cost change) const noexcept {
    const csp::Cost d = sums_[line] + change - magic_;
    return (d < 0 ? -d : d) - line_err_[line];
  }

  /// Sum of |error| changes over lines affected by writing `delta` into the
  /// lines of cell a and `-delta` into the lines of cell b.
  [[nodiscard]] csp::Cost swap_delta(std::size_t a, std::size_t b) const;

  /// Move `line`'s sum by `change`, keeping line_err_ and err_sum_ in sync.
  void shift_line(std::size_t line, csp::Cost change) noexcept {
    sums_[line] += change;
    const csp::Cost d = sums_[line] - magic_;
    const csp::Cost err = d < 0 ? -d : d;
    err_sum_ += err - line_err_[line];
    line_err_[line] = err;
  }

  std::size_t n_;
  csp::Cost magic_;
  std::string name_ = "magic-square";
  std::vector<csp::Cost> sums_;      ///< 2n+2 line sums
  std::vector<csp::Cost> line_err_;  ///< |sums_ - M| per line, cached
  csp::Cost err_sum_ = 0;            ///< running total of line_err_
};

}  // namespace cspls::problems
