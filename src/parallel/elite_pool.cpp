#include "parallel/elite_pool.hpp"

namespace cspls::parallel {

bool ElitePool::offer(std::uint64_t tick, csp::Cost cost,
                      std::span<const int> values, std::size_t publisher) {
  const std::scoped_lock lock(mutex_);
  ++publishes_;
  if (has_entry_ && !stale(tick) && cost >= best_cost_) return false;
  has_entry_ = true;
  best_cost_ = cost;
  best_values_.assign(values.begin(), values.end());
  entry_tick_ = tick;
  entry_publisher_ = publisher;
  ++accepted_;
  return true;
}

void ElitePool::store(std::uint64_t tick, csp::Cost cost,
                      std::span<const int> values, std::size_t publisher) {
  const std::scoped_lock lock(mutex_);
  ++publishes_;
  has_entry_ = true;
  best_cost_ = cost;
  best_values_.assign(values.begin(), values.end());
  entry_tick_ = tick;
  entry_publisher_ = publisher;
}

csp::Cost ElitePool::take_if_better(std::uint64_t now, csp::Cost below,
                                    std::vector<int>& out,
                                    std::size_t exclude_publisher) const {
  const std::scoped_lock lock(mutex_);
  if (!has_entry_ || stale(now) || best_cost_ >= below ||
      best_values_.empty()) {
    return csp::kInfiniteCost;
  }
  if (exclude_publisher != kNoPublisher &&
      entry_publisher_ == exclude_publisher) {
    return csp::kInfiniteCost;  // own publication: nothing to gossip
  }
  out = best_values_;
  return best_cost_;
}

std::uint64_t ElitePool::publishes() const {
  const std::scoped_lock lock(mutex_);
  return publishes_;
}

std::uint64_t ElitePool::accepted_offers() const {
  const std::scoped_lock lock(mutex_);
  return accepted_;
}

ElitePool::Snapshot ElitePool::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  snap.has_entry = has_entry_;
  snap.cost = best_cost_;
  snap.values = best_values_;
  snap.tick = entry_tick_;
  snap.publisher = entry_publisher_;
  snap.publishes = publishes_;
  snap.accepted = accepted_;
  return snap;
}

void ElitePool::restore(const Snapshot& snapshot) {
  const std::scoped_lock lock(mutex_);
  has_entry_ = snapshot.has_entry;
  best_cost_ = snapshot.cost;
  best_values_ = snapshot.values;
  entry_tick_ = snapshot.tick;
  entry_publisher_ = snapshot.publisher;
  publishes_ = snapshot.publishes;
  accepted_ = snapshot.accepted;
}

}  // namespace cspls::parallel
