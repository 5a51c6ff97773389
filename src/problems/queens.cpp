#include "problems/queens.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cspls::problems {

using csp::Cost;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}
}  // namespace

Queens::Queens(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      up_(2 * n - 1, 0),
      down_(2 * n - 1, 0) {
  if (n < 1) {
    throw std::invalid_argument("Queens: n must be >= 1");
  }
}

const std::string& Queens::name() const noexcept { return name_; }

std::string Queens::instance_description() const {
  std::ostringstream os;
  os << "queens n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> Queens::clone() const {
  return std::make_unique<Queens>(*this);
}

Cost Queens::bump(std::size_t col, int row, int step) const {
  Cost delta = 0;
  int& u = up_[up_slot(col, row)];
  int& d = down_[down_slot(col, row)];
  if (step > 0) {
    if (u++ >= 1) ++delta;
    if (d++ >= 1) ++delta;
  } else {
    if (--u >= 1) --delta;
    if (--d >= 1) --delta;
  }
  return delta;
}

Cost Queens::on_rebind() {
  std::fill(up_.begin(), up_.end(), 0);
  std::fill(down_.begin(), down_.end(), 0);
  Cost cost = 0;
  for (std::size_t col = 0; col < n_; ++col) {
    cost += bump(col, value(col), +1);
  }
  return cost;
}

Cost Queens::full_cost() const {
  std::vector<int> up(2 * n_ - 1, 0);
  std::vector<int> down(2 * n_ - 1, 0);
  Cost cost = 0;
  for (std::size_t col = 0; col < n_; ++col) {
    const int row = value(col);
    if (up[up_slot(col, row)]++ >= 1) ++cost;
    if (down[down_slot(col, row)]++ >= 1) ++cost;
  }
  return cost;
}

Cost Queens::cost_on_variable(std::size_t i) const {
  const int row = value(i);
  const int u = up_[up_slot(i, row)];
  const int d = down_[down_slot(i, row)];
  return (u >= 2 ? u - 1 : 0) + (d >= 2 ? d - 1 : 0);
}

Cost Queens::cost_if_swap(std::size_t i, std::size_t j) const {
  Cost delta = 0;
  delta += bump(i, value(i), -1);
  delta += bump(j, value(j), -1);
  delta += bump(i, value(j), +1);
  delta += bump(j, value(i), +1);
  const Cost result = total_cost() + delta;
  (void)bump(i, value(j), -1);
  (void)bump(j, value(i), -1);
  (void)bump(i, value(i), +1);
  (void)bump(j, value(j), +1);
  return result;
}

Cost Queens::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap: the queen that *was* in column i now shows as
  // value(j) and vice versa.
  Cost delta = 0;
  delta += bump(i, value(j), -1);  // retract old placement of column i
  delta += bump(j, value(i), -1);  // retract old placement of column j
  delta += bump(i, value(i), +1);
  delta += bump(j, value(j), +1);
  return total_cost() + delta;
}

void Queens::cost_on_all_variables(std::span<Cost> out) const {
  const auto vals = values();
  for (std::size_t i = 0; i < n_; ++i) {
    const int row = vals[i];
    const int u = up_[up_slot(i, row)];
    const int d = down_[down_slot(i, row)];
    out[i] = (u >= 2 ? u - 1 : 0) + (d >= 2 ? d - 1 : 0);
  }
}

namespace {

/// Surplus change of removing one occupant from diagonals a and b (possibly
/// the same) — closed form of the bump/rollback dance, no writes.
inline Cost remove_two(const std::vector<int>& occ, std::size_t a,
                       std::size_t b) noexcept {
  if (a == b) {
    const int c = occ[a];
    return c >= 3 ? -2 : (c == 2 ? -1 : 0);
  }
  return (occ[a] >= 2 ? Cost{-1} : Cost{0}) +
         (occ[b] >= 2 ? Cost{-1} : Cost{0});
}

/// Surplus change of adding one occupant to diagonals a and b (possibly the
/// same).  Addition slots are always disjoint from the removal slots of the
/// same candidate (coincidence would force equal rows or columns), so the
/// two closed forms compose without interference.
inline Cost add_two(const std::vector<int>& occ, std::size_t a,
                    std::size_t b) noexcept {
  if (a == b) {
    return occ[a] >= 1 ? Cost{2} : Cost{1};
  }
  return (occ[a] >= 1 ? Cost{1} : Cost{0}) +
         (occ[b] >= 1 ? Cost{1} : Cost{0});
}

}  // namespace

std::uint64_t Queens::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                    std::size_t& best_j, Cost& best_cost,
                                    std::size_t& ties) const {
  const auto vals = values();
  const Cost total = total_cost();
  const int rx = vals[x];
  const std::size_t ux = up_slot(x, rx);
  const std::size_t dx = down_slot(x, rx);
  csp::SwapScan scan(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == x) continue;
    const int rj = vals[j];
    const Cost delta =
        remove_two(up_, ux, up_slot(j, rj)) +
        add_two(up_, up_slot(x, rj), up_slot(j, rx)) +
        remove_two(down_, dx, down_slot(j, rj)) +
        add_two(down_, down_slot(x, rj), down_slot(j, rx));
    scan.consider(j, total + delta, rng);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n_ - 1;
}

bool Queens::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = a + 1; b < n_; ++b) {
      const auto col_gap = static_cast<int>(b - a);
      const int row_gap = vals[b] - vals[a];
      if (row_gap == col_gap || row_gap == -col_gap) return false;
    }
  }
  return true;
}

csp::TuningHints Queens::tuning() const noexcept {
  csp::TuningHints hints;
  hints.freeze_loc_min = 1;
  hints.freeze_swap = 0;
  hints.reset_limit =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, n_ / 10));
  hints.reset_fraction = 0.1;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * 500;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
