#include "problems/perfect_square.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace cspls::problems {

using csp::Cost;

PerfectSquareInstance PerfectSquareInstance::quadtree(int side_log2,
                                                      int splits,
                                                      std::uint64_t seed) {
  if (side_log2 < 1 || side_log2 > 12) {
    throw std::invalid_argument("quadtree: side_log2 out of range");
  }
  PerfectSquareInstance inst;
  inst.side = 1 << side_log2;
  inst.sizes = {inst.side};
  util::SplitMix64 rng(seed);
  for (int s = 0; s < splits; ++s) {
    // Collect splittable squares (side >= 2); stop early if none remain.
    std::vector<std::size_t> splittable;
    for (std::size_t i = 0; i < inst.sizes.size(); ++i) {
      if (inst.sizes[i] >= 2) splittable.push_back(i);
    }
    if (splittable.empty()) break;
    const std::size_t pick =
        splittable[rng.next() % splittable.size()];
    const int half = inst.sizes[pick] / 2;
    inst.sizes[pick] = half;
    inst.sizes.insert(inst.sizes.end(), 3, half);
  }
  // The first split always splits the master square itself, so drop the
  // degenerate single-square case from labels only.
  std::ostringstream label;
  label << "quadtree S=" << inst.side << " n=" << inst.sizes.size() << " seed="
        << seed;
  inst.label = label.str();
  return inst;
}

PerfectSquareInstance PerfectSquareInstance::duijvestijn21() {
  PerfectSquareInstance inst;
  inst.side = 112;
  inst.sizes = {50, 42, 37, 35, 33, 29, 27, 25, 24, 19, 18,
                17, 16, 15, 11, 9,  8,  7,  6,  4,  2};
  inst.label = "Duijvestijn order-21 (side 112)";
  return inst;
}

namespace {
std::vector<int> canonical_order(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}
}  // namespace

PerfectSquare::PerfectSquare(PerfectSquareInstance instance)
    : PermutationProblem(canonical_order(instance.sizes.size())),
      instance_(std::move(instance)),
      overflow_by_pos_(instance_.sizes.size(), 0),
      scratch_order_(instance_.sizes.size()),
      heights_(static_cast<std::size_t>(instance_.side), 0),
      checkpoint_h_(instance_.sizes.size() *
                        static_cast<std::size_t>(instance_.side),
                    0),
      checkpoint_err_(instance_.sizes.size(), 0) {
  long long area = 0;
  for (const int s : instance_.sizes) {
    if (s < 1 || s > instance_.side) {
      throw std::invalid_argument("PerfectSquare: square size out of range");
    }
    area += static_cast<long long>(s) * s;
  }
  if (area != static_cast<long long>(instance_.side) * instance_.side) {
    throw std::invalid_argument(
        "PerfectSquare: square areas must sum to side^2");
  }
}

const std::string& PerfectSquare::name() const noexcept { return name_; }

std::string PerfectSquare::instance_description() const {
  std::ostringstream os;
  os << "perfect-square " << instance_.label;
  return os.str();
}

std::unique_ptr<csp::Problem> PerfectSquare::clone() const {
  return std::make_unique<PerfectSquare>(*this);
}

Cost PerfectSquare::place(std::size_t s, std::vector<int>& h,
                          std::size_t& out_x, int& out_y) const {
  const auto side = static_cast<std::size_t>(instance_.side);
  // A plain pointer: indexing `h` itself made GCC reload h[highest] on
  // every step of the window scan.
  const int* col = h.data();

  // Bottom-left rule: the window of width s whose support level
  // y = max h[x .. x+s-1] is lowest, leftmost on ties.  Only x = 0 and
  // columns whose left neighbour is strictly higher can win: if
  // h[x-1] <= h[x], the window at x-1 is no higher and lies further left.
  // A window is abandoned at its first column at or above the best level so
  // far.  Every later window that still holds that column (or, after a new
  // best, the window's highest column) is no lower, so the scan resumes
  // just past it.
  int best_y = INT32_MAX;
  std::size_t best_x = 0;
  std::size_t x = 0;
  while (x + s <= side) {
    if (x > 0 && col[x - 1] <= col[x]) {
      ++x;
      continue;
    }
    std::size_t highest = x;
    std::size_t c = x;
    for (; c < x + s && col[c] < best_y; ++c) {
      if (col[c] >= col[highest]) highest = c;
    }
    if (c < x + s) {
      x = c + 1;
      continue;
    }
    best_y = col[highest];
    best_x = x;
    x = highest + 1;
  }

  const int top = best_y + static_cast<int>(s);
  // Placing on an uneven window buries the area between the lower columns
  // and the square's bottom forever (the skyline never fills below).
  // Charging that waste *at creation time* gives the search a gradient
  // long before anything pokes above the lid; by area conservation the
  // final buried area equals the final overflow area, so the total is
  // simply twice the waste and still zero exactly on perfect tilings.
  Cost buried = 0;
  for (std::size_t c = best_x; c < best_x + s; ++c) {
    buried += best_y - h[c];
    h[c] = top;
  }
  const Cost overflow =
      top > instance_.side
          ? static_cast<Cost>(top - instance_.side) * static_cast<Cost>(s)
          : 0;
  out_x = best_x;
  out_y = best_y;
  return buried + overflow;
}

Cost PerfectSquare::decode_from(std::size_t first, std::span<const int> order,
                                std::vector<Cost>* overflow_by_pos,
                                std::vector<SquarePlacement>* placements,
                                bool capture, Cost bound) const {
  const auto side = static_cast<std::size_t>(instance_.side);
  auto& h = heights_;
  Cost total = 0;
  if (first == 0) {
    std::fill(h.begin(), h.end(), 0);
  } else {
    // Resume from the prefix checkpoint: order[0..first) matches the
    // configuration the checkpoints were captured from, and the decoder is
    // deterministic, so the first `first` placements are identical.
    const int* row = checkpoint_h_.data() + first * side;
    std::copy(row, row + side, h.begin());
    total = checkpoint_err_[first];
  }
  if (placements) placements->resize(first);

  for (std::size_t pos = first; pos < order.size(); ++pos) {
    if (total > bound) return total;  // waste never shrinks: over for good
    if (capture) {
      std::copy(h.begin(), h.end(), checkpoint_h_.begin() + pos * side);
      checkpoint_err_[pos] = total;
    }
    const int id = order[pos];
    const auto s = static_cast<std::size_t>(
        instance_.sizes[static_cast<std::size_t>(id)]);
    std::size_t best_x = 0;
    int best_y = 0;
    const Cost err = place(s, h, best_x, best_y);
    total += err;
    if (overflow_by_pos) (*overflow_by_pos)[pos] = err;
    if (placements) {
      placements->push_back(SquarePlacement{static_cast<int>(best_x), best_y,
                                            static_cast<int>(s), id});
    }
  }
  return total;
}

Cost PerfectSquare::decode(std::span<const int> order,
                           std::vector<Cost>* overflow_by_pos,
                           std::vector<SquarePlacement>* placements) const {
  return decode_from(0, order, overflow_by_pos, placements, /*capture=*/false);
}

Cost PerfectSquare::on_rebind() {
  const Cost total =
      decode_from(0, values(), &overflow_by_pos_, &placements_,
                  /*capture=*/true);
  checkpoints_valid_ = true;
  return total;
}

Cost PerfectSquare::full_cost() const {
  return decode(values(), nullptr, nullptr);
}

Cost PerfectSquare::cost_on_variable(std::size_t i) const {
  return overflow_by_pos_[i];
}

Cost PerfectSquare::cost_if_swap(std::size_t i, std::size_t j) const {
  const auto vals = values();
  std::copy(vals.begin(), vals.end(), scratch_order_.begin());
  std::swap(scratch_order_[i], scratch_order_[j]);
  // A swap leaves order positions below min(i, j) untouched, so the probe
  // decode resumes from that prefix checkpoint instead of position 0.
  const std::size_t first = checkpoints_valid_ ? std::min(i, j) : 0;
  return decode_from(first, scratch_order_, nullptr, nullptr,
                     /*capture=*/false);
}

Cost PerfectSquare::did_swap(std::size_t i, std::size_t j) {
  // Same prefix argument as cost_if_swap: placements, waste attribution and
  // checkpoints below min(i, j) are unchanged, so only re-decode (and
  // re-capture) from there.
  const std::size_t first = checkpoints_valid_ ? std::min(i, j) : 0;
  const Cost total = decode_from(first, values(), &overflow_by_pos_,
                                 &placements_, /*capture=*/true);
  checkpoints_valid_ = true;
  return total;
}

void PerfectSquare::cost_on_all_variables(std::span<Cost> out) const {
  // The decoder already attributes waste per order position on every commit.
  std::copy(overflow_by_pos_.begin(), overflow_by_pos_.end(), out.begin());
}

std::uint64_t PerfectSquare::best_swap_for(std::size_t x,
                                           util::Xoshiro256& rng,
                                           std::size_t& best_j,
                                           Cost& best_cost,
                                           std::size_t& ties) const {
  // Each candidate still re-runs the decoder tail (the placement of square k
  // depends on every earlier placement), but the order buffer is built once
  // and patched by two-element swaps, and each decode resumes from the
  // prefix checkpoint at min(x, j) — candidates with j < x pay only the
  // suffix from j, candidates with j > x only the suffix from x.  A decode
  // also stops once its waste exceeds the scan's best so far: consider()
  // drops any cost above best_cost before it draws, so such a candidate can
  // never win, tie or touch the RNG.  Swapping two squares of one size
  // leaves the size sequence, and so every placement, as it is: once a
  // commit has decoded the configuration, such a candidate costs exactly
  // total_cost() and needs no decode at all.
  const std::size_t nn = num_variables();
  const auto vals = values();
  std::copy(vals.begin(), vals.end(), scratch_order_.begin());
  const auto size_at = [&](std::size_t pos) {
    return instance_.sizes[static_cast<std::size_t>(vals[pos])];
  };
  csp::SwapScan scan(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    if (j == x) continue;
    if (checkpoints_valid_ && size_at(j) == size_at(x)) {
      scan.consider(j, total_cost(), rng);
      continue;
    }
    std::swap(scratch_order_[x], scratch_order_[j]);
    const std::size_t first = checkpoints_valid_ ? std::min(x, j) : 0;
    scan.consider(j,
                  decode_from(first, scratch_order_, nullptr, nullptr,
                              /*capture=*/false, scan.best_cost),
                  rng);
    std::swap(scratch_order_[x], scratch_order_[j]);
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return nn - 1;
}

bool PerfectSquare::verify(std::span<const int> vals) const {
  const auto n = instance_.sizes.size();
  if (vals.size() != n) return false;
  if (!csp::is_permutation_of(vals, canonical_order(n))) return false;

  // Independent re-simulation on an explicit occupancy grid (separate code
  // path from the skyline decoder): derive column heights from the grid,
  // place each square at the (y, x)-minimal skyline position, and demand
  // in-bounds, overlap-free placement plus full coverage.
  const auto side = static_cast<std::size_t>(instance_.side);
  std::vector<std::uint8_t> grid(side * side, 0);
  const auto column_height = [&](std::size_t c) {
    for (std::size_t r = side; r > 0; --r) {
      if (grid[(r - 1) * side + c]) return static_cast<int>(r);
    }
    return 0;
  };
  for (const int id : vals) {
    const auto s =
        static_cast<std::size_t>(instance_.sizes[static_cast<std::size_t>(id)]);
    int best_y = INT32_MAX;
    std::size_t best_x = 0;
    for (std::size_t x = 0; x + s <= side; ++x) {
      int y = 0;
      for (std::size_t c = x; c < x + s; ++c) {
        y = std::max(y, column_height(c));
      }
      if (y < best_y) {
        best_y = y;
        best_x = x;
      }
    }
    if (best_y + static_cast<int>(s) > instance_.side) return false;  // pokes out
    for (std::size_t r = static_cast<std::size_t>(best_y);
         r < static_cast<std::size_t>(best_y) + s; ++r) {
      for (std::size_t c = best_x; c < best_x + s; ++c) {
        if (grid[r * side + c]) return false;  // overlap
        grid[r * side + c] = 1;
      }
    }
  }
  for (const std::uint8_t cell : grid) {
    if (!cell) return false;  // gap
  }
  return true;
}

csp::TuningHints PerfectSquare::tuning() const noexcept {
  csp::TuningHints hints;
  // With the buried-waste gradient the landscape is well-behaved: short
  // freezes, frequent small perturbations, moderate plateau walking (swept
  // empirically in scratch harnesses).
  hints.freeze_loc_min = 1;
  hints.freeze_swap = 0;
  hints.reset_limit = 4;
  hints.reset_fraction = 0.1;
  hints.restart_limit = instance_.sizes.size() * instance_.sizes.size() * 50;
  hints.prob_accept_plateau = 0.5;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

std::string PerfectSquare::packing_to_string() const {
  const auto side = static_cast<std::size_t>(instance_.side);
  std::vector<char> grid(side * side, '.');
  const char* alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  for (const auto& p : placements_) {
    const char mark = alphabet[static_cast<std::size_t>(p.id) % 62];
    for (int r = p.y; r < p.y + p.size && r < instance_.side; ++r) {
      for (int c = p.x; c < p.x + p.size; ++c) {
        grid[static_cast<std::size_t>(r) * side + static_cast<std::size_t>(c)] =
            mark;
      }
    }
  }
  std::ostringstream os;
  for (std::size_t r = side; r > 0; --r) {  // row 0 at the bottom
    for (std::size_t c = 0; c < side; ++c) {
      os << grid[(r - 1) * side + c];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cspls::problems
