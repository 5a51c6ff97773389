// Number partitioning ("partit" in the original Adaptive Search
// distribution; CSPLib prob049 family).
//
// Partition {1..n} (n a multiple of 4) into two halves of n/2 numbers such
// that both halves have the same sum and the same sum of squares.  Model:
// a permutation of 1..n; the first n/2 positions form side A.  The cost is
// |sumA - sumB| + |sqA - sqB|, zero exactly on valid partitions.  Swapping
// inside one side never changes the cost; swapping across sides is O(1).
#pragma once

#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

class Partition final : public csp::PermutationProblem {
 public:
  /// n must be a positive multiple of 4 (otherwise no solution exists).
  explicit Partition(std::size_t n);

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

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  [[nodiscard]] csp::Cost cost_from(csp::Cost sum_a, csp::Cost sq_a)
      const noexcept;

  std::size_t n_;
  std::size_t half_;
  std::string name_ = "partition";
  csp::Cost total_sum_ = 0;
  csp::Cost total_sq_ = 0;
  csp::Cost sum_a_ = 0;  ///< sum of the first n/2 positions
  csp::Cost sq_a_ = 0;   ///< sum of squares of the first n/2 positions
  /// Candidate costs consumed by SwapScan::feed.
  mutable std::vector<csp::Cost> cand_;
};

}  // namespace cspls::problems
