// A deliberate de-optimizer: wraps any Problem and pins the bulk hot-path
// hooks (cost_on_all_variables / best_swap_for) to their scalar defaults,
// looping the wrapped model's per-variable virtuals exactly the way the
// engine's historical inline loops did before the batched API existed.
//
// Two consumers:
//   - bench_micro_solver measures the same kernel through both paths in one
//     binary, so the kernel-vs-reference speedup is an apples-to-apples
//     ratio;
//   - the trajectory-equivalence tests pin that both paths draw the RNG in
//     the same order and therefore walk the identical search trajectory.
#pragma once

#include <memory>

#include "csp/problem.hpp"

namespace cspls::csp {

class ScalarPathProblem final : public Problem {
 public:
  /// Takes ownership of the wrapped model.
  explicit ScalarPathProblem(std::unique_ptr<Problem> inner);

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::string instance_description() const override;
  [[nodiscard]] std::size_t num_variables() const noexcept override;
  [[nodiscard]] std::unique_ptr<Problem> clone() const override;
  [[nodiscard]] std::span<const int> values() const noexcept override;
  Cost randomize(util::Xoshiro256& rng) override;
  Cost assign(std::span<const int> values) override;
  [[nodiscard]] Cost total_cost() const noexcept override;
  [[nodiscard]] Cost full_cost() const override;
  [[nodiscard]] Cost cost_on_variable(std::size_t i) const override;
  [[nodiscard]] Cost cost_if_swap(std::size_t i, std::size_t j) const override;
  Cost swap(std::size_t i, std::size_t j) override;
  Cost reset_perturbation(double fraction, util::Xoshiro256& rng) override;
  [[nodiscard]] bool verify(std::span<const int> values) const override;
  [[nodiscard]] TuningHints tuning() const noexcept override;

  /// Scalar reference paths: loop the wrapped model's per-variable virtuals
  /// directly (one virtual call per variable/candidate, like the pre-batched
  /// engine), bypassing any bulk override the model provides.
  void cost_on_all_variables(std::span<Cost> out) const override;
  std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                              std::size_t& best_j, Cost& best_cost,
                              std::size_t& ties) const override;

 private:
  std::unique_ptr<Problem> inner_;
};

}  // namespace cspls::csp
