#include "csp/problem.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>


namespace cspls::csp {

namespace detail {

void scalar_cost_on_all_variables(const Problem& problem,
                                  std::span<Cost> out) {
  assert(out.size() == problem.num_variables());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = problem.cost_on_variable(i);
  }
}

std::uint64_t scalar_best_swap_for(const Problem& problem, std::size_t x,
                                   util::Xoshiro256& rng, std::size_t& best_j,
                                   Cost& best_cost, std::size_t& ties) {
  const std::size_t n = problem.num_variables();
  SwapScan scan(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == x) continue;
    scan.consider(j, problem.cost_if_swap(x, j), rng);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n - 1;
}

}  // namespace detail

void SwapScan::feed(std::size_t base_j, std::span<const Cost> cand,
                    std::size_t skip, util::Xoshiro256& rng) noexcept {
  for (std::size_t k = 0; k < cand.size(); ++k) {
    const std::size_t j = base_j + k;
    if (j == skip) continue;
    consider(j, cand[k], rng);
  }
}

void Problem::cost_on_all_variables(std::span<Cost> out) const {
  detail::scalar_cost_on_all_variables(*this, out);
}

std::uint64_t Problem::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                     std::size_t& best_j, Cost& best_cost,
                                     std::size_t& ties) const {
  return detail::scalar_best_swap_for(*this, x, rng, best_j, best_cost, ties);
}

PermutationProblem::PermutationProblem(std::vector<int> canonical)
    : values_(std::move(canonical)) {
  if (values_.empty()) {
    throw std::invalid_argument("PermutationProblem: empty value set");
  }
}

Cost PermutationProblem::randomize(util::Xoshiro256& rng) {
  rng.shuffle(std::span<int>(values_));
  cost_ = on_rebind();
  return cost_;
}

Cost PermutationProblem::assign(std::span<const int> values) {
  if (values.size() != values_.size()) {
    throw std::invalid_argument("assign: size mismatch");
  }
  std::copy(values.begin(), values.end(), values_.begin());
  cost_ = on_rebind();
  return cost_;
}

Cost PermutationProblem::cost_if_swap(std::size_t i, std::size_t j) const {
  // Always-correct fallback: temporarily apply the swap and recompute.
  // Concrete models override with O(affected-constraints) versions; tests
  // compare the two (see tests/problems_property_test.cpp).
  auto& self = const_cast<PermutationProblem&>(*this);
  std::swap(self.values_[i], self.values_[j]);
  const Cost cost = full_cost();
  std::swap(self.values_[i], self.values_[j]);
  return cost;
}

Cost PermutationProblem::swap(std::size_t i, std::size_t j) {
  assert(i < values_.size() && j < values_.size());
  std::swap(values_[i], values_[j]);
  cost_ = did_swap(i, j);
  return cost_;
}

Cost PermutationProblem::did_swap(std::size_t /*i*/, std::size_t /*j*/) {
  return full_cost();
}

Cost PermutationProblem::reset_perturbation(double fraction,
                                            util::Xoshiro256& rng) {
  // Shuffle the values of a random `fraction` subset of the positions among
  // themselves.  Routed through swap() so models keep their incremental
  // structures consistent.
  const std::size_t n = values_.size();
  const auto k = std::min(
      n, std::max<std::size_t>(
             2, static_cast<std::size_t>(static_cast<double>(n) * fraction)));
  // Reservoir-select k positions into a scratch prefix.
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t t = 0; t < k; ++t) {
    const auto r = t + static_cast<std::size_t>(rng.below(n - t));
    std::swap(pool[t], pool[r]);
  }
  // Fisher–Yates over the selected positions.
  for (std::size_t t = k; t > 1; --t) {
    const auto r = static_cast<std::size_t>(rng.below(t));
    if (pool[t - 1] != pool[r]) {
      (void)swap(pool[t - 1], pool[r]);
    }
  }
  return total_cost();
}

bool is_permutation_of(std::span<const int> values,
                       std::span<const int> canonical) {
  if (values.size() != canonical.size()) return false;
  std::vector<int> a(values.begin(), values.end());
  std::vector<int> b(canonical.begin(), canonical.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace cspls::csp
