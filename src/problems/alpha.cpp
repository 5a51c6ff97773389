#include "problems/alpha.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <sstream>

namespace cspls::problems {

using csp::Cost;

namespace {

constexpr const char* kWords[] = {
    "ballet", "cello",     "concert", "flute", "fugue",
    "glee",   "jazz",      "lyre",    "oboe",  "opera",
    "polka",  "quartet",   "saxophone", "scale", "solo",
    "song",   "soprano",   "theme",   "violin", "waltz"};
static_assert(std::size(kWords) == Alpha::kEquations);

constexpr std::size_t kMaxWordLength = [] {
  std::size_t longest = 0;
  for (const char* word : kWords) {
    longest = std::max(longest, std::char_traits<char>::length(word));
  }
  return longest;
}();

// best_swap_for sums its equation errors in 16-bit lanes.  For any
// configuration of the values 1..26, a word of length L has its sum and its
// target in [L, 26L], so its residual is within 25L and a swap moves it by
// at most 25L more: each error is at most 50L, and twenty of them fit.
static_assert(Alpha::kEquations * 50 * kMaxWordLength <= INT16_MAX);

std::vector<int> canonical_values() {
  std::vector<int> v(26);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

}  // namespace

std::array<int, 26> Alpha::reference_solution() noexcept {
  // The published solution of the classic puzzle (A..Z).  The targets below
  // are *derived* from it, so the instance is solvable by construction.
  return {5,  13, 9,  16, 20, 4,  24, 21, 25, 17, 23, 2,  8,
          12, 10, 19, 7,  11, 15, 3,  1,  26, 6,  22, 18, 14};
}

Alpha::Alpha() : PermutationProblem(canonical_values()), letter_eqs_(26) {
  const std::array<int, 26> ref = reference_solution();
  for (std::size_t eq = 0; eq < kEquations; ++eq) {
    words_.emplace_back(kWords[eq]);
    Cost target = 0;
    for (const char* p = kWords[eq]; *p; ++p) {
      const auto letter = static_cast<std::size_t>(*p - 'a');
      if (coeffs_[letter][eq]++ == 0) letter_eqs_[letter].push_back(eq);
      target += ref[letter];
    }
    targets_.push_back(target);
  }
  sums_.assign(kEquations, 0);
  eq_err_.assign(kEquations, 0);
}

const std::string& Alpha::name() const noexcept { return name_; }

std::string Alpha::instance_description() const {
  std::ostringstream os;
  os << "alpha cipher (" << words_.size() << " equations, 26 letters)";
  return os.str();
}

std::unique_ptr<csp::Problem> Alpha::clone() const {
  return std::make_unique<Alpha>(*this);
}

Cost Alpha::on_rebind() {
  Cost cost = 0;
  for (std::size_t e = 0; e < kEquations; ++e) {
    Cost sum = 0;
    for (std::size_t letter = 0; letter < 26; ++letter) {
      sum += static_cast<Cost>(coeffs_[letter][e]) * value(letter);
    }
    sums_[e] = sum;
    cost += equation_error(e);
  }
  return cost;
}

Cost Alpha::full_cost() const {
  Cost cost = 0;
  for (std::size_t e = 0; e < kEquations; ++e) {
    Cost sum = 0;
    for (std::size_t letter = 0; letter < 26; ++letter) {
      sum += static_cast<Cost>(coeffs_[letter][e]) * value(letter);
    }
    const Cost d = sum - targets_[e];
    cost += d < 0 ? -d : d;
  }
  return cost;
}

Cost Alpha::cost_on_variable(std::size_t i) const {
  Cost err = 0;
  for (const std::size_t e : letter_eqs_[i]) err += equation_error(e);
  return err;
}

Cost Alpha::cost_if_swap(std::size_t i, std::size_t j) const {
  const Cost d = static_cast<Cost>(value(j)) - static_cast<Cost>(value(i));
  if (d == 0) return total_cost();
  Cost delta = 0;
  // Equations containing i gain (cj - ci_coeff...) — walk both lists and
  // handle the overlap once via the coefficient difference.
  for (const std::size_t e : letter_eqs_[i]) {
    const Cost change =
        d * (static_cast<Cost>(coeffs_[i][e]) - static_cast<Cost>(coeffs_[j][e]));
    if (change == 0) continue;
    const Cost s = sums_[e] + change - targets_[e];
    delta += (s < 0 ? -s : s) - equation_error(e);
  }
  for (const std::size_t e : letter_eqs_[j]) {
    if (coeffs_[i][e] > 0) continue;  // already handled above
    const Cost change = -d * static_cast<Cost>(coeffs_[j][e]);
    const Cost s = sums_[e] + change - targets_[e];
    delta += (s < 0 ? -s : s) - equation_error(e);
  }
  return total_cost() + delta;
}

Cost Alpha::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap; letter i's value changed by value(i) - value(j)
  // (its new value minus its old one, which is now at j).
  const Cost d = static_cast<Cost>(value(i)) - static_cast<Cost>(value(j));
  for (const std::size_t e : letter_eqs_[i]) {
    sums_[e] += d * (static_cast<Cost>(coeffs_[i][e]) -
                     static_cast<Cost>(coeffs_[j][e]));
  }
  for (const std::size_t e : letter_eqs_[j]) {
    if (coeffs_[i][e] > 0) continue;
    sums_[e] += -d * static_cast<Cost>(coeffs_[j][e]);
  }
  Cost cost = 0;
  for (std::size_t e = 0; e < kEquations; ++e) cost += equation_error(e);
  return cost;
}

void Alpha::cost_on_all_variables(std::span<Cost> out) const {
  // Equation errors once (~20 of them), then one pass over the (sparse)
  // letter -> equation index — instead of 26 scalar calls re-deriving the
  // same equation errors.
  for (std::size_t e = 0; e < sums_.size(); ++e) {
    eq_err_[e] = equation_error(e);
  }
  for (std::size_t letter = 0; letter < out.size(); ++letter) {
    Cost err = 0;
    for (const std::size_t e : letter_eqs_[letter]) err += eq_err_[e];
    out[letter] = err;
  }
}

std::uint64_t Alpha::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                   std::size_t& best_j, Cost& best_cost,
                                   std::size_t& ties) const {
  // Swapping x and j moves equation e's sum by (v_j - v_x)(c_ex - c_ej),
  // which is zero for an equation holding neither letter, so one dense pass
  // over every equation per candidate gives the exact cost with no index
  // lists.  The pass runs in 16-bit lanes (see the static_assert on
  // kMaxWordLength), padded with zero equations to whole 8-lane vectors.
  std::array<Lane, kLanes> residual{};
  int error_sum = 0;
  for (std::size_t e = 0; e < kEquations; ++e) {
    residual[e] = static_cast<Lane>(sums_[e] - targets_[e]);
    error_sum += std::abs(residual[e]);
  }
  const std::array<Lane, kLanes>& coeff_x = coeffs_[x];
  const Cost base = total_cost() - error_sum;
  const Cost value_x = value(x);
  const std::size_t nn = num_variables();
  csp::SwapScan scan(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    if (j == x) continue;
    const auto d = static_cast<Lane>(static_cast<Cost>(value(j)) - value_x);
    const std::array<Lane, kLanes>& coeff_j = coeffs_[j];
    Lane error = 0;
    for (std::size_t e = 0; e < kLanes; ++e) {
      const auto r =
          static_cast<Lane>(residual[e] + d * (coeff_x[e] - coeff_j[e]));
      error = static_cast<Lane>(error + (r < 0 ? -r : r));
    }
    scan.consider(j, base + error, rng);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

bool Alpha::verify(std::span<const int> vals) const {
  if (vals.size() != 26) return false;
  if (!csp::is_permutation_of(vals, canonical_values())) return false;
  for (std::size_t e = 0; e < kEquations; ++e) {
    Cost sum = 0;
    for (std::size_t letter = 0; letter < 26; ++letter) {
      sum += static_cast<Cost>(coeffs_[letter][e]) * vals[letter];
    }
    if (sum != targets_[e]) return false;
  }
  return true;
}

csp::TuningHints Alpha::tuning() const noexcept {
  csp::TuningHints hints;
  // Swept empirically: the linear system rewards *long* freezes (letters in
  // many equations must stay out of the spotlight long enough for the rest
  // to settle) plus full plateau walking.
  hints.freeze_loc_min = 6;
  hints.freeze_swap = 3;
  hints.reset_limit = 12;
  hints.reset_fraction = 0.1;
  hints.restart_limit = 300'000;
  hints.prob_accept_plateau = 1.0;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
