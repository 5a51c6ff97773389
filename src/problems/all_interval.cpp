#include "problems/all_interval.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace cspls::problems {

using csp::Cost;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}
}  // namespace

AllInterval::AllInterval(std::size_t n)
    : PermutationProblem(canonical_values(n)), n_(n), occ_(n, 0),
      pair_diff_(n, 0), cand_cost_(n, 0) {
  if (n < 2) {
    throw std::invalid_argument("AllInterval: n must be >= 2");
  }
}

const std::string& AllInterval::name() const noexcept { return name_; }

std::string AllInterval::instance_description() const {
  std::ostringstream os;
  os << "all-interval n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> AllInterval::clone() const {
  return std::make_unique<AllInterval>(*this);
}

int AllInterval::diff_at(std::size_t p) const noexcept {
  return std::abs(value(p + 1) - value(p));
}

int AllInterval::diff_at_swapped(std::size_t p, std::size_t i,
                                 std::size_t j) const noexcept {
  const auto at = [&](std::size_t pos) {
    if (pos == i) return value(j);
    if (pos == j) return value(i);
    return value(pos);
  };
  return std::abs(at(p + 1) - at(p));
}

std::size_t AllInterval::affected_pairs(std::size_t i, std::size_t j,
                                        std::size_t out[4]) const noexcept {
  std::size_t count = 0;
  const auto push = [&](std::size_t p) {
    if (p >= n_ - 1) return;  // also rejects p == size_t(-1) underflow
    for (std::size_t k = 0; k < count; ++k) {
      if (out[k] == p) return;
    }
    out[count++] = p;
  };
  push(i - 1);
  push(i);
  push(j - 1);
  push(j);
  return count;
}

Cost AllInterval::on_rebind() {
  std::fill(occ_.begin(), occ_.end(), 0);
  Cost cost = 0;
  for (std::size_t p = 0; p + 1 < n_; ++p) {
    const int d = diff_at(p);
    pair_diff_[p] = d;
    if (occ_[static_cast<std::size_t>(d)]++ >= 1) ++cost;
  }
  return cost;
}

Cost AllInterval::full_cost() const {
  std::vector<int> occ(n_, 0);
  Cost cost = 0;
  for (std::size_t p = 0; p + 1 < n_; ++p) {
    const int d = diff_at(p);
    if (occ[static_cast<std::size_t>(d)]++ >= 1) ++cost;
  }
  return cost;
}

Cost AllInterval::cost_on_variable(std::size_t i) const {
  // Blame position i for every surplus occurrence of an adjacent difference.
  Cost err = 0;
  if (i > 0) {
    const int d = diff_at(i - 1);
    err += std::max(0, occ_[static_cast<std::size_t>(d)] - 1);
  }
  if (i + 1 < n_) {
    const int d = diff_at(i);
    err += std::max(0, occ_[static_cast<std::size_t>(d)] - 1);
  }
  return err;
}

Cost AllInterval::cost_if_swap(std::size_t i, std::size_t j) const {
  std::size_t pairs[4];
  const std::size_t count = affected_pairs(i, j, pairs);

  Cost delta = 0;
  int removed[4];
  int added[4];
  // Remove the old differences of the affected pairs...
  for (std::size_t k = 0; k < count; ++k) {
    const int d = diff_at(pairs[k]);
    removed[k] = d;
    if (--occ_[static_cast<std::size_t>(d)] >= 1) --delta;
  }
  // ...and account the post-swap differences.
  for (std::size_t k = 0; k < count; ++k) {
    const int d = diff_at_swapped(pairs[k], i, j);
    added[k] = d;
    if (occ_[static_cast<std::size_t>(d)]++ >= 1) ++delta;
  }
  // Roll back the probe.
  for (std::size_t k = 0; k < count; ++k) {
    --occ_[static_cast<std::size_t>(added[k])];
    ++occ_[static_cast<std::size_t>(removed[k])];
  }
  return total_cost() + delta;
}

Cost AllInterval::did_swap(std::size_t i, std::size_t j) {
  // values() already hold the post-swap configuration; the pre-swap
  // differences of the affected pairs are re-derivable by swapping back.
  std::size_t pairs[4];
  const std::size_t count = affected_pairs(i, j, pairs);
  Cost delta = 0;
  for (std::size_t k = 0; k < count; ++k) {
    // diff_at_swapped now yields the *old* difference (swap is involutive).
    const int d = diff_at_swapped(pairs[k], i, j);
    if (--occ_[static_cast<std::size_t>(d)] >= 1) --delta;
  }
  for (std::size_t k = 0; k < count; ++k) {
    const int d = diff_at(pairs[k]);
    pair_diff_[pairs[k]] = d;
    if (occ_[static_cast<std::size_t>(d)]++ >= 1) ++delta;
  }
  return total_cost() + delta;
}

void AllInterval::cost_on_all_variables(std::span<Cost> out) const {
  // One pass over the n-1 adjacent differences (maintained incrementally by
  // did_swap/on_rebind), charging each surplus to both endpoints — the
  // scalar projection without n virtual calls.
  std::fill(out.begin(), out.end(), Cost{0});
  for (std::size_t p = 0; p + 1 < n_; ++p) {
    const int c = occ_[static_cast<std::size_t>(pair_diff_[p])];
    if (c >= 2) {
      const Cost s = c - 1;
      out[p] += s;
      out[p + 1] += s;
    }
  }
}

namespace {
inline int abs_diff(int a, int b) noexcept { return a > b ? a - b : b - a; }
}  // namespace

std::uint64_t AllInterval::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                         std::size_t& best_j, Cost& best_cost,
                                         std::size_t& ties) const {
  // Probe-and-undo on the occurrence table: the <= 4 old differences come
  // from pair_diff_ (rebuilt once per call), only the <= 4 hypothetical ones
  // are computed per candidate, and the surplus marginals telescope so the
  // fused retract/assert pass yields the exact cost_if_swap value.  The
  // x-side flags are loop-invariant and the j-side ones fail only at the two
  // border candidates, so the inner loop runs effectively branch-free.
  const auto vals = values();
  const Cost total = total_cost();
  const int vx = vals[x];
  const bool x_has_left = x > 0;
  const bool x_has_right = x + 1 < n_;
  const int vxl = x_has_left ? vals[x - 1] : 0;
  const int vxr = x_has_right ? vals[x + 1] : 0;
  const int d1 = x_has_left ? pair_diff_[x - 1] : 0;
  const int d2 = x_has_right ? pair_diff_[x] : 0;
  int* const occ = occ_.data();

  // Fold the candidate-independent retraction of x's pairs into the table
  // for the compute pass (restored before the generic probes run and before
  // returning).  The surplus marginals telescope, so every candidate's
  // delta is delta0 plus its own j-side ops evaluated on the folded counts —
  // and all corrections against the x-side removals vanish from the inner
  // loop.
  Cost delta0 = 0;
  if (x_has_left) delta0 -= (--occ[d1] >= 1);
  if (x_has_right) delta0 -= (--occ[d2] >= 1);
  const auto restore_x = [&] {
    if (x_has_left) ++occ[d1];
    if (x_has_right) ++occ[d2];
  };

  // Phase 1: every candidate's total cost into cand_cost_ — pure compute,
  // no tie-break branches interleaved, so loads pipeline across candidates.
  // The kernel is specialized on the (call-constant) x-boundary flags so
  // dead terms fold away.  Ops run in a fixed order (remove d3, d4; add
  // a1..a4) and each marginal corrects its slot count by the equality-folded
  // net of the earlier ops — read-only and branch-free per candidate.
  const Cost base = total + delta0;
  Cost* const cand = cand_cost_.data();
  const std::size_t lo = x > 0 ? x - 1 : 0;            // specials: x and its
  const std::size_t hi = x + 1 < n_ ? x + 1 : n_ - 1;  // neighbours + borders
  const auto run = [&](auto xl_tag, auto xr_tag) {
    constexpr bool kXL = decltype(xl_tag)::value;
    constexpr bool kXR = decltype(xr_tag)::value;
    for (std::size_t j = 1; j + 1 < n_; ++j) {
      if (j >= lo && j <= hi) continue;  // filled by the generic probe below
      const int vj = vals[j];
      const int vjl = vals[j - 1];
      const int vjr = vals[j + 1];
      const int d3 = pair_diff_[j - 1];
      const int d4 = pair_diff_[j];
      const int a3 = abs_diff(vx, vjl);
      const int a4 = abs_diff(vjr, vx);
      Cost delta = 0;
      delta -= (occ[d3] >= 2);
      delta -= (occ[d4] - (d4 == d3) >= 2);
      int a1 = 0, a2 = 0;
      if constexpr (kXL) {
        a1 = abs_diff(vj, vxl);
        delta += (occ[a1] - (a1 == d3) - (a1 == d4) >= 1);
      }
      if constexpr (kXR) {
        a2 = abs_diff(vxr, vj);
        delta += (occ[a2] - (a2 == d3) - (a2 == d4) + (kXL && a2 == a1) >=
                  1);
      }
      delta += (occ[a3] - (a3 == d3) - (a3 == d4) + (kXL && a3 == a1) +
                    (kXR && a3 == a2) >=
                1);
      delta += (occ[a4] - (a4 == d3) - (a4 == d4) + (kXL && a4 == a1) +
                    (kXR && a4 == a2) + (a4 == a3) >=
                1);
      cand[j] = base + delta;
    }
  };
  if (x_has_left && x_has_right) {
    run(std::true_type{}, std::true_type{});
  } else if (x_has_left) {
    run(std::true_type{}, std::false_type{});
  } else {
    run(std::false_type{}, std::true_type{});
  }
  // Specials — borders, x's neighbourhood (adjacency shares a pair): the
  // deduplicating scalar probe on the restored table (at most 7 per call).
  restore_x();
  for (std::size_t j = lo; j <= hi; ++j) {
    if (j != x) cand[j] = AllInterval::cost_if_swap(x, j);
  }
  cand[0] = x == 0 ? 0 : AllInterval::cost_if_swap(x, 0);
  cand[n_ - 1] = x == n_ - 1 ? 0 : AllInterval::cost_if_swap(x, n_ - 1);

  // Phase 2: reservoir scan over the array — identical draw order to the
  // historical inline loop.
  csp::SwapScan scan(n_);
  scan.feed(0, std::span<const Cost>(cand, n_), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n_ - 1;
}

bool AllInterval::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  std::vector<bool> seen(n_, false);
  for (std::size_t p = 0; p + 1 < n_; ++p) {
    const int d = std::abs(vals[p + 1] - vals[p]);
    if (d < 1 || static_cast<std::size_t>(d) > n_ - 1) return false;
    if (seen[static_cast<std::size_t>(d)]) return false;
    seen[static_cast<std::size_t>(d)] = true;
  }
  return true;
}

csp::Cost AllInterval::reset_perturbation(double fraction,
                                          util::Xoshiro256& rng) {
  // Reverse one random segment whose length scales with `fraction` (at
  // least 2).  Operates on the underlying values directly, then rebinds.
  auto& vals = mutable_values();
  const std::size_t n = vals.size();
  const auto max_len = std::max<std::size_t>(
      2, static_cast<std::size_t>(static_cast<double>(n) * fraction));
  const std::size_t len =
      2 + static_cast<std::size_t>(rng.below(std::max<std::size_t>(
              1, max_len - 1)));
  const std::size_t start =
      static_cast<std::size_t>(rng.below(n - std::min(len, n) + 1));
  std::reverse(vals.begin() + static_cast<std::ptrdiff_t>(start),
               vals.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(start + len, n)));
  const csp::Cost cost = on_rebind();
  set_cached_cost(cost);
  return cost;
}

csp::TuningHints AllInterval::tuning() const noexcept {
  csp::TuningHints hints;
  // The step-like landscape needs full plateau walking, generous worsening
  // acceptance and the segment-reversal reset (reset_perturbation above);
  // freezing recent swap participants stops plateau two-cycles.  Swept in
  // scratch harnesses; this benchmark stays the hardest per variable, which
  // matches the original study (all-interval shows the steepest sequential
  // growth of the CSPLib trio).
  hints.freeze_loc_min = 3;
  hints.freeze_swap = 4;
  hints.reset_limit = 4;
  hints.reset_fraction = 0.1;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * 300;
  hints.prob_accept_plateau = 1.0;
  hints.prob_accept_local_min = 0.4;
  return hints;
}

}  // namespace cspls::problems
