#include "problems/costas.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/simd.hpp"

namespace cspls::problems {

using csp::Cost;
namespace simd = util::simd;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}
}  // namespace

Costas::Costas(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      stride_(2 * n + 1),
      pstride_(simd::padded_size(n, simd::i32x8::kLanes)),
      // +8 scratch slots past the real difference triangle: the swap scan
      // parks the q == x / q == j lanes there to keep its bump/undo
      // loops branch-free (each dummy absorbs exactly one op per candidate
      // and is restored by the matching undo, so they stay at zero).
      occ_((n - 1) * (2 * n + 1) + 8, 0),
      rowoff_pad_(n * pstride_, 0),
      sgmask_(n * pstride_, 0),
      vals_pad_(pstride_, 0),
      xslot_(pstride_, 0),
      srj_(pstride_, 0),
      sax_(pstride_, 0),
      saj_(pstride_, 0),
      cand_(pstride_, 0) {
  if (n < 2) {
    throw std::invalid_argument("Costas: n must be >= 2");
  }
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      const std::size_t d = p > q ? p - q : q - p;
      rowoff_pad_[p * pstride_ + q] =
          static_cast<std::int32_t>((d - 1) * stride_ + n);
      sgmask_[p * pstride_ + q] = q > p ? 0 : -1;
    }
  }
}

const std::string& Costas::name() const noexcept { return name_; }

std::string Costas::instance_description() const {
  std::ostringstream os;
  os << "costas n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> Costas::clone() const {
  return std::make_unique<Costas>(*this);
}

Cost Costas::on_rebind() {
  std::fill(occ_.begin(), occ_.end(), 0);
  Cost cost = 0;
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = value(a + d) - value(a);
      if (occ_[slot(d, diff)]++ >= 1) ++cost;
    }
  }
  return cost;
}

Cost Costas::full_cost() const {
  std::vector<int> occ((n_ - 1) * stride_, 0);
  Cost cost = 0;
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = value(a + d) - value(a);
      if (occ[slot(d, diff)]++ >= 1) ++cost;
    }
  }
  return cost;
}

Cost Costas::cost_on_variable(std::size_t i) const {
  // Surplus occurrences of every difference produced by a pair through i.
  Cost err = 0;
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == i) continue;
    const std::size_t a = std::min(i, q);
    const std::size_t d = (i > q) ? i - q : q - i;
    const int diff = value(a + d) - value(a);
    const int occ = occ_[slot(d, diff)];
    if (occ >= 2) err += occ - 1;
  }
  return err;
}

namespace {
/// Value at `pos` under an optional hypothetical exchange of positions i, j.
inline int view(std::span<const int> vals, std::size_t pos, bool swapped,
                std::size_t i, std::size_t j) noexcept {
  if (swapped) {
    if (pos == i) return vals[j];
    if (pos == j) return vals[i];
  }
  return vals[pos];
}
}  // namespace

Cost Costas::bump(std::size_t a, std::size_t d, int step,
                  const int* probe) const {
  // probe encodes (swapped?, i, j) packed by the callers below via the
  // three-int convention {swapped, i, j}; see for_affected_pairs call sites.
  const bool swapped = probe[0] != 0;
  const auto i = static_cast<std::size_t>(probe[1]);
  const auto j = static_cast<std::size_t>(probe[2]);
  const int diff = view(values(), a + d, swapped, i, j) -
                   view(values(), a, swapped, i, j);
  int& occ = occ_[slot(d, diff)];
  if (step > 0) {
    return occ++ >= 1 ? Cost{1} : Cost{0};
  }
  return --occ >= 1 ? Cost{-1} : Cost{0};
}

template <typename F>
void Costas::for_affected_pairs(std::size_t i, std::size_t j, F&& f) const {
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == i) continue;
    f(std::min(i, q), (i > q) ? i - q : q - i);
  }
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == j || q == i) continue;  // the {i, j} pair was already visited
    f(std::min(j, q), (j > q) ? j - q : q - j);
  }
}

Cost Costas::cost_if_swap(std::size_t i, std::size_t j) const {
  const int current[3] = {0, static_cast<int>(i), static_cast<int>(j)};
  const int exchanged[3] = {1, static_cast<int>(i), static_cast<int>(j)};
  Cost delta = 0;
  // Retract the differences of all affected pairs (current configuration)...
  for_affected_pairs(
      i, j, [&](std::size_t a, std::size_t d) { delta += bump(a, d, -1, current); });
  // ...assert them under the hypothetical exchange...
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, +1, exchanged);
  });
  const Cost result = total_cost() + delta;
  // ...and roll the probe back.
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    (void)bump(a, d, -1, exchanged);
  });
  for_affected_pairs(
      i, j, [&](std::size_t a, std::size_t d) { (void)bump(a, d, +1, current); });
  return result;
}

Cost Costas::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap; "swapped view" therefore reconstructs the
  // pre-swap configuration (exchange is involutive).
  const int pre_swap[3] = {1, static_cast<int>(i), static_cast<int>(j)};
  const int post_swap[3] = {0, static_cast<int>(i), static_cast<int>(j)};
  Cost delta = 0;
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, -1, pre_swap);
  });
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, +1, post_swap);
  });
  return total_cost() + delta;
}

void Costas::cost_on_all_variables(std::span<Cost> out) const {
  // One pass over the difference triangle instead of n scalar calls of O(n)
  // each: every pair's surplus is charged to both endpoints, which is
  // exactly the cost_on_variable projection summed per variable.
  const auto vals = values();
  std::fill(out.begin(), out.end(), Cost{0});
  for (std::size_t d = 1; d < n_; ++d) {
    const int* occ_row = occ_.data() + (d - 1) * stride_ +
                         static_cast<std::ptrdiff_t>(n_);
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int c = occ_row[vals[a + d] - vals[a]];
      if (c >= 2) {
        const Cost s = c - 1;
        out[a] += s;
        out[a + d] += s;
      }
    }
  }
}

std::uint64_t Costas::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                    std::size_t& best_j, Cost& best_cost,
                                    std::size_t& ties) const {
  // Probe-and-undo candidate deltas, one fused pass per candidate.  The cost
  // is a sum of per-slot surpluses g(c) = max(0, c - 1) whose marginals
  // telescope (Σ marginals = Σ_slots g(final) − g(initial), independent of
  // op order), so retracting the ~2n affected pairs and asserting their
  // hypothetical replacements directly on occ_ yields the exact cost_if_swap
  // value with no virtual calls and no rollback recomputation.  Two
  // restructurings keep the serial part short:
  //   1. the retraction of x's pairs — common to every candidate — is folded
  //      out of the j loop and applied ONCE up front (delta0), cutting the
  //      serial occurrence-bump work per candidate from 4 ops/pair to 3;
  //   2. slot addresses are computed eight pairs at a time on the lane-padded
  //      mask tables (slot = ro + ((diff^m)−m), no multiply, no branch), then
  //      consumed by the (inherently serial, scatter-carried) bump loop.
  // Candidate costs land in cand_ and the reservoir runs through
  // SwapScan::feed, which replays the historical RNG draws exactly.
  constexpr std::size_t kL = simd::i32x8::kLanes;
  const std::size_t n = n_;
  const std::size_t pn = pstride_;
  const auto vals = values();
  const Cost total = total_cost();
  const int vx = vals[x];
  std::copy(vals.begin(), vals.end(), vals_pad_.begin());
  const std::int32_t* ro_x = rowoff_pad_.data() + x * pn;
  const std::int32_t* mk_x = sgmask_.data() + x * pn;
  const auto vxb = simd::i32x8::broadcast(vx);
  for (std::size_t q = 0; q < pn; q += kL) {
    const auto d = simd::i32x8::load(vals_pad_.data() + q) - vxb;
    const auto m = simd::i32x8::load(mk_x + q);
    const auto s = simd::i32x8::load(ro_x + q) + ((d ^ m) - m);
    s.store(xslot_.data() + q);
  }
  int* const occ = occ_.data();
  // Dummy scratch slots past the triangle (see the constructor): parking the
  // q == x / q == j lanes there makes every serial bump/undo loop below
  // branch-free.  A dummy sees exactly one op per pass, so its count moves
  // 0 → ±1 (contributing nothing to delta: −1 >= 1 and 0 >= 1 are both
  // false) and the inverse op restores it to zero.
  const auto D = static_cast<std::int32_t>((n - 1) * stride_);
  Cost delta0 = 0;
  xslot_[x] = D;
  for (std::size_t q = 0; q < n; ++q) {
    delta0 -= (--occ[xslot_[q]] >= 1);
  }
  const Cost base = total + delta0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == x) {
      cand_[j] = csp::kInfiniteCost;
      continue;
    }
    const int vj = vals[j];
    const std::int32_t* ro_j = rowoff_pad_.data() + j * pn;
    const std::int32_t* mk_j = sgmask_.data() + j * pn;
    const auto vjb = simd::i32x8::broadcast(vj);
    for (std::size_t q = 0; q < pn; q += kL) {
      const auto v = simd::i32x8::load(vals_pad_.data() + q);
      const auto mj = simd::i32x8::load(mk_j + q);
      const auto roj = simd::i32x8::load(ro_j + q);
      const auto mx = simd::i32x8::load(mk_x + q);
      const auto rox = simd::i32x8::load(ro_x + q);
      const auto dj = v - vjb;  // retractions of j's pairs + x's asserts
      (roj + ((dj ^ mj) - mj)).store(srj_.data() + q);
      (rox + ((dj ^ mx) - mx)).store(sax_.data() + q);
      const auto dx = v - vxb;  // j's asserts (j holds vx after exchange)
      (roj + ((dx ^ mj) - mj)).store(saj_.data() + q);
    }
    srj_[x] = D + 1;
    sax_[x] = D + 2;
    saj_[x] = D + 3;
    srj_[j] = D + 4;
    sax_[j] = D + 5;
    saj_[j] = D + 6;
    Cost delta = 0;
    for (std::size_t q = 0; q < n; ++q) {
      delta -= (--occ[srj_[q]] >= 1);
      delta += (occ[sax_[q]]++ >= 1);
      delta += (occ[saj_[q]]++ >= 1);
    }
    // The {x, j} pair: retracted in the delta0 fold, asserted here.
    const std::int32_t s_axj =
        ro_x[j] + (((vx - vj) ^ mk_x[j]) - mk_x[j]);
    delta += (occ[s_axj]++ >= 1);
    cand_[j] = base + delta;
    for (std::size_t q = 0; q < n; ++q) {
      ++occ[srj_[q]];
      --occ[sax_[q]];
      --occ[saj_[q]];
    }
    --occ[s_axj];
  }
  for (std::size_t q = 0; q < n; ++q) {
    ++occ[xslot_[q]];
  }
  csp::SwapScan scan(n);
  scan.feed(0, std::span<const Cost>(cand_.data(), n), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n - 1;
}

bool Costas::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t d = 1; d < n_; ++d) {
    std::vector<bool> seen(2 * n_ + 1, false);
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = vals[a + d] - vals[a];
      const auto idx = static_cast<std::size_t>(diff + static_cast<int>(n_));
      if (seen[idx]) return false;
      seen[idx] = true;
    }
  }
  return true;
}

csp::TuningHints Costas::tuning() const noexcept {
  csp::TuningHints hints;
  // CAP settings follow the dedicated Costas study (Diaz et al.): very
  // short freezes and frequent tiny perturbations (every second local
  // minimum shuffles two positions) — an iterated-descent regime.  Plateau
  // walking hurts here (pp = 0): the difference-triangle landscape rewards
  // strict descent plus perturbation.  Swept in scratch harnesses; n = 10
  // solves in ~60 iterations median with these settings.
  hints.freeze_loc_min = 1;
  hints.freeze_swap = 0;
  hints.reset_limit = 2;
  hints.reset_fraction = 0.05;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * n_ * 500;
  hints.prob_accept_plateau = 0.0;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
