#include "problems/partition.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cspls::problems {

using csp::Cost;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}
}  // namespace

Partition::Partition(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      half_(n / 2),
      cand_(n, 0) {
  if (n == 0 || n % 4 != 0) {
    throw std::invalid_argument("Partition: n must be a positive multiple of 4");
  }
  for (std::size_t v = 1; v <= n_; ++v) {
    total_sum_ += static_cast<Cost>(v);
    total_sq_ += static_cast<Cost>(v) * static_cast<Cost>(v);
  }
}

const std::string& Partition::name() const noexcept { return name_; }

std::string Partition::instance_description() const {
  std::ostringstream os;
  os << "partition n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> Partition::clone() const {
  return std::make_unique<Partition>(*this);
}

Cost Partition::cost_from(Cost sum_a, Cost sq_a) const noexcept {
  const Cost sum_diff = 2 * sum_a - total_sum_;
  const Cost sq_diff = 2 * sq_a - total_sq_;
  return (sum_diff < 0 ? -sum_diff : sum_diff) +
         (sq_diff < 0 ? -sq_diff : sq_diff);
}

Cost Partition::on_rebind() {
  sum_a_ = 0;
  sq_a_ = 0;
  for (std::size_t p = 0; p < half_; ++p) {
    const Cost v = value(p);
    sum_a_ += v;
    sq_a_ += v * v;
  }
  return cost_from(sum_a_, sq_a_);
}

Cost Partition::full_cost() const {
  Cost sum_a = 0, sq_a = 0;
  for (std::size_t p = 0; p < half_; ++p) {
    const Cost v = value(p);
    sum_a += v;
    sq_a += v * v;
  }
  return cost_from(sum_a, sq_a);
}

Cost Partition::cost_on_variable(std::size_t i) const {
  // The halves are interchangeable, so no single variable is more guilty
  // than another a priori; the original "partit" model likewise projects the
  // global cost onto every variable, which makes the engine's worst-variable
  // selection uniform among non-tabu variables.
  (void)i;
  return total_cost();
}

Cost Partition::cost_if_swap(std::size_t i, std::size_t j) const {
  const bool i_in_a = i < half_;
  const bool j_in_a = j < half_;
  if (i_in_a == j_in_a) return total_cost();  // same side: nothing changes
  const std::size_t a_pos = i_in_a ? i : j;
  const std::size_t b_pos = i_in_a ? j : i;
  const Cost va = value(a_pos);
  const Cost vb = value(b_pos);
  const Cost sum_a = sum_a_ - va + vb;
  const Cost sq_a = sq_a_ - va * va + vb * vb;
  return cost_from(sum_a, sq_a);
}

Cost Partition::did_swap(std::size_t i, std::size_t j) {
  const bool i_in_a = i < half_;
  const bool j_in_a = j < half_;
  if (i_in_a == j_in_a) return total_cost();
  // values() are post-swap: the value now at the A-side position arrived
  // from the B side.
  const std::size_t a_pos = i_in_a ? i : j;
  const std::size_t b_pos = i_in_a ? j : i;
  const Cost incoming = value(a_pos);  // new member of side A
  const Cost outgoing = value(b_pos);  // left side A
  sum_a_ += incoming - outgoing;
  sq_a_ += incoming * incoming - outgoing * outgoing;
  return cost_from(sum_a_, sq_a_);
}

void Partition::cost_on_all_variables(std::span<Cost> out) const {
  // The model projects the global cost uniformly onto every variable.
  std::fill(out.begin(), out.end(), total_cost());
}

std::uint64_t Partition::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                       std::size_t& best_j, Cost& best_cost,
                                       std::size_t& ties) const {
  const auto vals = values();
  const Cost total = total_cost();
  const bool x_in_a = x < half_;
  const Cost vx = vals[x];
  // Same-side candidates leave the partition unchanged; cross-side ones move
  // one value each way.  Both regions are contiguous, so the fill is two
  // tight loops and the reservoir runs batched over the whole array.
  Cost* const cand = cand_.data();
  const std::size_t same_lo = x_in_a ? 0 : half_;
  const std::size_t same_hi = x_in_a ? half_ : n_;
  const std::size_t cross_lo = x_in_a ? half_ : 0;
  const std::size_t cross_hi = x_in_a ? n_ : half_;
  for (std::size_t j = same_lo; j < same_hi; ++j) cand[j] = total;
  for (std::size_t j = cross_lo; j < cross_hi; ++j) {
    const Cost va = x_in_a ? vx : vals[j];  // leaves side A
    const Cost vb = x_in_a ? vals[j] : vx;  // joins side A
    cand[j] = cost_from(sum_a_ - va + vb, sq_a_ - va * va + vb * vb);
  }
  cand[x] = csp::kInfiniteCost;
  csp::SwapScan scan(n_);
  scan.feed(0, std::span<const Cost>(cand, n_), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n_ - 1;
}

bool Partition::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  long long sum_a = 0, sum_b = 0, sq_a = 0, sq_b = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    const long long v = vals[p];
    if (p < half_) {
      sum_a += v;
      sq_a += v * v;
    } else {
      sum_b += v;
      sq_b += v * v;
    }
  }
  return sum_a == sum_b && sq_a == sq_b;
}

csp::TuningHints Partition::tuning() const noexcept {
  csp::TuningHints hints;
  // With uniform projected errors, selection is effectively random; short
  // freezes plus frequent small resets drive the search (matches "partit").
  // Swept empirically: n = 48 solves in ~7k iterations median.
  hints.freeze_loc_min = 2;
  hints.freeze_swap = 0;
  hints.reset_limit =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, n_ / 4));
  hints.reset_fraction = 0.05;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * 100;
  hints.prob_accept_plateau = 0.5;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
