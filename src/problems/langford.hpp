// Langford pairing L(2,n) (CSPLib prob024), from the original Adaptive
// Search distribution.
//
// Arrange two copies of each number 1..n in a sequence of length 2n such
// that the two copies of k are exactly k+1 positions apart (k numbers lie
// between them).  Model: positions 0..2n-1 hold a permutation of item ids
// 0..2n-1 where items 2k and 2k+1 are the copies of number k+1.  The cost of
// number k is | |pos(2k) - pos(2k+1)| - (k+2) | summed over k; zero exactly
// on Langford sequences.  Solutions exist iff n ≡ 0 or 3 (mod 4).
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class Langford final : public csp::PermutationProblem {
 public:
  explicit Langford(std::size_t n);

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

  /// Render as the usual number sequence, e.g. "3 1 2 1 3 2".
  [[nodiscard]] std::string sequence_to_string() const;

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// |pos(2k) - pos(2k+1)| - (k+2), folded to >= 0, for number index k.
  [[nodiscard]] csp::Cost number_error(std::size_t k) const noexcept;

  std::size_t n_;
  std::string name_ = "langford";
  std::vector<std::size_t> pos_;  ///< item id -> position (inverse of values)
  /// Candidate costs consumed by SwapScan::feed.
  mutable std::vector<csp::Cost> cand_;
};

}  // namespace cspls::problems
