#include "problems/langford.hpp"

#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cspls::problems {

using csp::Cost;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(2 * n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}
}  // namespace

Langford::Langford(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      pos_(2 * n, 0),
      cand_(2 * n, 0) {
  if (n < 1) {
    throw std::invalid_argument("Langford: n must be >= 1");
  }
}

const std::string& Langford::name() const noexcept { return name_; }

std::string Langford::instance_description() const {
  std::ostringstream os;
  os << "langford L(2," << n_ << ")";
  return os.str();
}

std::unique_ptr<csp::Problem> Langford::clone() const {
  return std::make_unique<Langford>(*this);
}

Cost Langford::number_error(std::size_t k) const noexcept {
  const auto a = static_cast<std::ptrdiff_t>(pos_[2 * k]);
  const auto b = static_cast<std::ptrdiff_t>(pos_[2 * k + 1]);
  const auto gap = std::abs(a - b);
  const auto want = static_cast<std::ptrdiff_t>(k) + 2;
  return static_cast<Cost>(std::abs(gap - want));
}

Cost Langford::on_rebind() {
  const auto vals = values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    pos_[static_cast<std::size_t>(vals[p])] = p;
  }
  Cost cost = 0;
  for (std::size_t k = 0; k < n_; ++k) cost += number_error(k);
  return cost;
}

Cost Langford::full_cost() const {
  const auto vals = values();
  std::vector<std::size_t> pos(vals.size());
  for (std::size_t p = 0; p < vals.size(); ++p) {
    pos[static_cast<std::size_t>(vals[p])] = p;
  }
  Cost cost = 0;
  for (std::size_t k = 0; k < n_; ++k) {
    const auto a = static_cast<std::ptrdiff_t>(pos[2 * k]);
    const auto b = static_cast<std::ptrdiff_t>(pos[2 * k + 1]);
    cost += static_cast<Cost>(
        std::abs(std::abs(a - b) - (static_cast<std::ptrdiff_t>(k) + 2)));
  }
  return cost;
}

Cost Langford::cost_on_variable(std::size_t i) const {
  // Blame a position for the error of the number whose copy occupies it.
  const auto item = static_cast<std::size_t>(value(i));
  return number_error(item / 2);
}

Cost Langford::cost_if_swap(std::size_t i, std::size_t j) const {
  const auto item_i = static_cast<std::size_t>(value(i));
  const auto item_j = static_cast<std::size_t>(value(j));
  const std::size_t ki = item_i / 2;
  const std::size_t kj = item_j / 2;
  if (ki == kj) return total_cost();  // both copies of one number: no change

  auto& self = const_cast<Langford&>(*this);
  const Cost before = number_error(ki) + number_error(kj);
  std::swap(self.pos_[item_i], self.pos_[item_j]);
  const Cost after = number_error(ki) + number_error(kj);
  std::swap(self.pos_[item_i], self.pos_[item_j]);
  return total_cost() - before + after;
}

Cost Langford::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap: value(i) is the item that moved *to* i.
  const auto item_to_i = static_cast<std::size_t>(value(i));
  const auto item_to_j = static_cast<std::size_t>(value(j));
  const std::size_t ka = item_to_i / 2;
  const std::size_t kb = item_to_j / 2;
  const Cost before = number_error(ka) + (ka == kb ? 0 : number_error(kb));
  pos_[item_to_i] = i;
  pos_[item_to_j] = j;
  const Cost after = number_error(ka) + (ka == kb ? 0 : number_error(kb));
  return total_cost() - before + after;
}

void Langford::cost_on_all_variables(std::span<Cost> out) const {
  // Each number's error is shared by its two copies: compute it once per
  // number and scatter through the position index.
  for (std::size_t k = 0; k < n_; ++k) {
    const Cost err = number_error(k);
    out[pos_[2 * k]] = err;
    out[pos_[2 * k + 1]] = err;
  }
}

std::uint64_t Langford::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                      std::size_t& best_j, Cost& best_cost,
                                      std::size_t& ties) const {
  const std::size_t nn = num_variables();
  const auto vals = values();
  const Cost total = total_cost();
  const auto item_x = static_cast<std::size_t>(vals[x]);
  const std::size_t kx = item_x / 2;
  const Cost ex = number_error(kx);
  const auto mate_x_pos = static_cast<std::ptrdiff_t>(pos_[item_x ^ 1U]);

  const auto gap_error = [](std::ptrdiff_t a, std::ptrdiff_t b,
                            std::size_t k) noexcept {
    const auto gap = a > b ? a - b : b - a;
    const auto miss = gap - (static_cast<std::ptrdiff_t>(k) + 2);
    return static_cast<Cost>(miss < 0 ? -miss : miss);
  };

  Cost* const cand = cand_.data();
  for (std::size_t j = 0; j < nn; ++j) {
    const auto item_j = static_cast<std::size_t>(vals[j]);
    const std::size_t kj = item_j / 2;
    if (kj == kx) {
      // Both copies of one number: the gap is symmetric, nothing changes
      // (covers j == x too; that slot is overwritten with the sentinel).
      cand[j] = total;
      continue;
    }
    // Hypothetically item_x sits at j and item_j at x; the mates stay put.
    const Cost ex_after = gap_error(static_cast<std::ptrdiff_t>(j),
                                    mate_x_pos, kx);
    const Cost ej = number_error(kj);
    const Cost ej_after =
        gap_error(static_cast<std::ptrdiff_t>(x),
                  static_cast<std::ptrdiff_t>(pos_[item_j ^ 1U]), kj);
    cand[j] = total - ex - ej + ex_after + ej_after;
  }
  cand[x] = csp::kInfiniteCost;
  csp::SwapScan scan(nn);
  scan.feed(0, std::span<const Cost>(cand, nn), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

bool Langford::verify(std::span<const int> vals) const {
  if (vals.size() != 2 * n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  std::vector<std::ptrdiff_t> pos(2 * n_);
  for (std::size_t p = 0; p < vals.size(); ++p) {
    pos[static_cast<std::size_t>(vals[p])] = static_cast<std::ptrdiff_t>(p);
  }
  for (std::size_t k = 0; k < n_; ++k) {
    const auto gap = std::abs(pos[2 * k] - pos[2 * k + 1]);
    if (gap != static_cast<std::ptrdiff_t>(k) + 2) return false;
  }
  return true;
}

csp::TuningHints Langford::tuning() const noexcept {
  csp::TuningHints hints;
  hints.freeze_loc_min = 2;
  hints.freeze_swap = 0;
  hints.reset_limit =
      static_cast<std::uint32_t>(std::max<std::size_t>(2, n_ / 2));
  hints.reset_fraction = 0.15;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * 200;
  hints.prob_accept_local_min = 0.05;
  return hints;
}

std::string Langford::sequence_to_string() const {
  std::ostringstream os;
  const auto vals = values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    if (p) os << ' ';
    os << (static_cast<std::size_t>(vals[p]) / 2 + 1);
  }
  return os.str();
}

}  // namespace cspls::problems
