#include "problems/magic_square.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cspls::problems {

using csp::Cost;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n * n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}
}  // namespace

MagicSquare::MagicSquare(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      magic_(static_cast<Cost>(n) * (static_cast<Cost>(n) * static_cast<Cost>(n) + 1) / 2),
      sums_(2 * n + 2, 0),
      line_err_(2 * n + 2, 0) {
  if (n < 3) {
    throw std::invalid_argument("MagicSquare: n must be >= 3");
  }
}

const std::string& MagicSquare::name() const noexcept { return name_; }

std::string MagicSquare::instance_description() const {
  std::ostringstream os;
  os << "magic-square " << n_ << "x" << n_ << " (M=" << magic_ << ")";
  return os.str();
}

std::unique_ptr<csp::Problem> MagicSquare::clone() const {
  return std::make_unique<MagicSquare>(*this);
}

Cost MagicSquare::on_rebind() {
  std::fill(sums_.begin(), sums_.end(), Cost{0});
  const auto vals = values();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const Cost v = vals[i * n_ + j];
      sums_[i] += v;
      sums_[n_ + j] += v;
      if (i == j) sums_[2 * n_] += v;
      if (i + j == n_ - 1) sums_[2 * n_ + 1] += v;
    }
  }
  err_sum_ = 0;
  for (std::size_t line = 0; line < sums_.size(); ++line) {
    const Cost d = sums_[line] - magic_;
    line_err_[line] = d < 0 ? -d : d;
    err_sum_ += line_err_[line];
  }
  return err_sum_;
}

Cost MagicSquare::full_cost() const {
  // Independent of the cached sums: recompute from the raw values.
  std::vector<Cost> sums(2 * n_ + 2, 0);
  const auto vals = values();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const Cost v = vals[i * n_ + j];
      sums[i] += v;
      sums[n_ + j] += v;
      if (i == j) sums[2 * n_] += v;
      if (i + j == n_ - 1) sums[2 * n_ + 1] += v;
    }
  }
  Cost cost = 0;
  for (const Cost s : sums) {
    const Cost d = s - magic_;
    cost += d < 0 ? -d : d;
  }
  return cost;
}

Cost MagicSquare::cost_on_variable(std::size_t k) const {
  const std::size_t i = k / n_;
  const std::size_t j = k % n_;
  Cost err = line_error(i) + line_error(n_ + j);
  if (i == j) err += line_error(2 * n_);
  if (i + j == n_ - 1) err += line_error(2 * n_ + 1);
  return err;
}

Cost MagicSquare::swap_delta(std::size_t a, std::size_t b) const {
  // Cell a receives value(b) and cell b receives value(a):
  // every line through a gains d, every line through b loses d, and a line
  // through both is unchanged.
  const Cost d = static_cast<Cost>(value(b)) - static_cast<Cost>(value(a));
  if (d == 0 || a == b) return 0;
  const std::size_t ia = a / n_, ja = a % n_;
  const std::size_t ib = b / n_, jb = b % n_;

  Cost delta = 0;
  const auto add = [&](std::size_t line, Cost change) {
    delta += line_error_after(line, change);
  };
  if (ia != ib) {
    add(ia, d);
    add(ib, -d);
  }
  if (ja != jb) {
    add(n_ + ja, d);
    add(n_ + jb, -d);
  }
  const bool a_d1 = (ia == ja), b_d1 = (ib == jb);
  if (a_d1 != b_d1) add(2 * n_, a_d1 ? d : -d);
  const bool a_d2 = (ia + ja == n_ - 1), b_d2 = (ib + jb == n_ - 1);
  if (a_d2 != b_d2) add(2 * n_ + 1, a_d2 ? d : -d);
  return delta;
}

Cost MagicSquare::cost_if_swap(std::size_t i, std::size_t j) const {
  return total_cost() + swap_delta(i, j);
}

Cost MagicSquare::did_swap(std::size_t i, std::size_t j) {
  // values() already reflect the swap; sums_ do not yet.  The delta formula
  // needs pre-swap values, and value(i)/value(j) are now exchanged, so the
  // "incoming" value at i is value(i) = old value(j).  Only the <= 6 lines
  // through the two cells move; shift_line keeps the per-line error cache
  // and the running total exact, so the commit is O(1), not O(n).
  const Cost d = static_cast<Cost>(value(i)) - static_cast<Cost>(value(j));
  const std::size_t ia = i / n_, ja = i % n_;
  const std::size_t ib = j / n_, jb = j % n_;
  if (ia != ib) {
    shift_line(ia, d);
    shift_line(ib, -d);
  }
  if (ja != jb) {
    shift_line(n_ + ja, d);
    shift_line(n_ + jb, -d);
  }
  const bool a_d1 = (ia == ja), b_d1 = (ib == jb);
  if (a_d1 != b_d1) shift_line(2 * n_, a_d1 ? d : -d);
  const bool a_d2 = (ia + ja == n_ - 1), b_d2 = (ib + jb == n_ - 1);
  if (a_d2 != b_d2) shift_line(2 * n_ + 1, a_d2 ? d : -d);
  return err_sum_;
}

void MagicSquare::cost_on_all_variables(std::span<Cost> out) const {
  // One pass over the board reading the cached line errors: the bulk scan
  // shares the 2n+2 error lookups across all n^2 cells.
  const Cost d1 = line_err_[2 * n_], d2 = line_err_[2 * n_ + 1];
  std::size_t k = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Cost row = line_err_[i];
    for (std::size_t j = 0; j < n_; ++j, ++k) {
      Cost err = row + line_err_[n_ + j];
      if (i == j) err += d1;
      if (i + j == n_ - 1) err += d2;
      out[k] = err;
    }
  }
}

std::uint64_t MagicSquare::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                         std::size_t& best_j, Cost& best_cost,
                                         std::size_t& ties) const {
  // Specialized swap_delta with everything about cell x hoisted out of the
  // candidate loop; the board walk tracks (row, col) so no divisions happen
  // per candidate.
  const std::size_t nn = num_variables();
  const std::size_t ia = x / n_, ja = x % n_;
  const Cost va = value(x);
  const bool a_d1 = (ia == ja), a_d2 = (ia + ja == n_ - 1);
  const Cost total = total_cost();
  const auto vals = values();
  csp::SwapScan scan(nn);
  std::size_t b = 0;
  for (std::size_t ib = 0; ib < n_; ++ib) {
    for (std::size_t jb = 0; jb < n_; ++jb, ++b) {
      if (b == x) continue;
      const Cost d = static_cast<Cost>(vals[b]) - va;
      Cost delta = 0;
      if (ia != ib) {
        delta += line_error_after(ia, d) + line_error_after(ib, -d);
      }
      if (ja != jb) {
        delta += line_error_after(n_ + ja, d) + line_error_after(n_ + jb, -d);
      }
      const bool b_d1 = (ib == jb);
      if (a_d1 != b_d1) delta += line_error_after(2 * n_, a_d1 ? d : -d);
      const bool b_d2 = (ib + jb == n_ - 1);
      if (a_d2 != b_d2) delta += line_error_after(2 * n_ + 1, a_d2 ? d : -d);
      scan.consider(b, total + delta, rng);
    }
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

bool MagicSquare::verify(std::span<const int> vals) const {
  if (vals.size() != n_ * n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t i = 0; i < n_; ++i) {
    Cost row = 0, col = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      row += vals[i * n_ + j];
      col += vals[j * n_ + i];
    }
    if (row != magic_ || col != magic_) return false;
  }
  Cost d1 = 0, d2 = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    d1 += vals[i * n_ + i];
    d2 += vals[i * n_ + (n_ - 1 - i)];
  }
  return d1 == magic_ && d2 == magic_;
}

csp::TuningHints MagicSquare::tuning() const noexcept {
  csp::TuningHints hints;
  // Swept empirically (bench_ablation_params): plateau walking plus occasional
  // worsening moves matter on the |line - M| surface; resets fire after a
  // quarter of the cells have hit local minima and reshuffle a small subset.
  hints.freeze_loc_min = 5;
  hints.freeze_swap = 0;
  hints.reset_limit = static_cast<std::uint32_t>(
      std::max<std::size_t>(2, n_ * n_ / 4));
  hints.reset_fraction = 0.05;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * 400;
  hints.prob_accept_plateau = 0.5;
  hints.prob_accept_local_min = 0.1;
  return hints;
}

std::string MagicSquare::board_to_string() const {
  std::ostringstream os;
  const auto vals = values();
  const int width = static_cast<int>(std::to_string(n_ * n_).size());
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      os.width(width + 1);
      os << vals[i * n_ + j];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cspls::problems
