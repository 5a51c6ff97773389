// The "alpha" cipher puzzle from the original Adaptive Search distribution
// (also shipped as alpha.pl with GNU Prolog): assign a distinct value of
// 1..26 to each letter A..Z so that twenty word equations hold, where a
// word's value is the sum of its letters' values (e.g. BALLET = 45).
//
// This is the library's linear-arithmetic showcase: the cost is the sum of
// |word_sum - target| over all equations, the projected error of a letter is
// the summed error of the equations it appears in, and a swap touches only
// the equations containing either letter.
//
// The equation *targets* are generated from an embedded reference solution
// (the classic puzzle's published answer), which keeps the instance solvable
// by construction while preserving the exact constraint structure; a unit
// test pins the reference solution to cost zero.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class Alpha final : public csp::PermutationProblem {
 public:
  static constexpr std::size_t kEquations = 20;

  Alpha();

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

  /// The reference assignment the targets were generated from (A..Z order).
  [[nodiscard]] static std::array<int, 26> reference_solution() noexcept;

  /// The puzzle's words, A..Z coefficient vectors and targets, for tests.
  [[nodiscard]] const std::vector<std::string>& words() const noexcept {
    return words_;
  }
  [[nodiscard]] const std::vector<csp::Cost>& targets() const noexcept {
    return targets_;
  }

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  [[nodiscard]] csp::Cost equation_error(std::size_t e) const noexcept {
    const csp::Cost d = sums_[e] - targets_[e];
    return d < 0 ? -d : d;
  }

  /// best_swap_for's dense pass: 16-bit lanes, equations padded with zero
  /// rows to a whole number of 8-lane vectors.
  using Lane = std::int16_t;
  static constexpr std::size_t kLanes = (kEquations + 7) / 8 * 8;

  std::string name_ = "alpha";
  std::vector<std::string> words_;
  /// Dense letter-major counts: coeffs_[letter][e] = occurrences in word e.
  std::array<std::array<Lane, kLanes>, 26> coeffs_{};
  std::vector<csp::Cost> targets_;
  std::vector<std::vector<std::size_t>> letter_eqs_;  ///< letter -> equations
  std::vector<csp::Cost> sums_;                   ///< cached equation sums
  mutable std::vector<csp::Cost> eq_err_;         ///< bulk-scan scratch
};

}  // namespace cspls::problems
