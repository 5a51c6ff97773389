// One exchange slot of the communication layer.
//
// An ElitePool holds at most one configuration — the paper's future-work
// "recorded crossroad": transfers stay rare (periodic) and small (one
// configuration per edge).  The slot serves every ExchangeStrategy of
// exchange.hpp through two publish verbs and one adopt verb:
//
//   offer()           keep-best publish (elite exchange): accepted only if
//                     strictly better than the current entry;
//   store()           unconditional overwrite (island-style migration);
//   take_if_better()  adopt: copy only when strictly below the caller's
//                     threshold — the adopter's own cost for elite
//                     exchange, csp::kInfiniteCost for migration (any
//                     fresh migrant qualifies).
//
// Staleness: every publish carries a tick from the pool-wide exchange clock
// (one tick per publish event anywhere in the pool).  A slot built with
// `decay` > 0 forgets its entry once more than `decay` ticks have passed
// since it was recorded — a stale crossroad is invisible to adopters and is
// replaced by the next offer even when that offer is worse (the cost-decay
// pool of the ROADMAP: the paper warns "the global cost of a configuration
// is not a reliable information", and an old low cost is the least reliable
// of all).  `decay` == 0 means entries never expire, which reproduces the
// PR-1 keep-best pool byte-for-byte.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "csp/cost.hpp"

namespace cspls::parallel {

class ElitePool {
 public:
  /// "No publisher recorded" / "exclude nobody" sentinel for the publisher
  /// stamp below.
  static constexpr std::size_t kNoPublisher = static_cast<std::size_t>(-1);

  /// `decay` is the staleness bound in exchange-clock ticks (0 = entries
  /// never expire).
  explicit ElitePool(std::uint64_t decay = 0) noexcept : decay_(decay) {}

  /// Keep-best publish at time `tick`: kept if strictly better than the
  /// current entry, or if the current entry has gone stale.  Returns true
  /// when accepted.  `publisher` stamps the entry with the publishing
  /// walker (consumed by the mid-walk self-adoption filter); the stamp
  /// never affects acceptance.
  bool offer(std::uint64_t tick, csp::Cost cost, std::span<const int> values,
             std::size_t publisher = kNoPublisher);

  /// Unconditional overwrite at time `tick` (migration publish): the slot
  /// always carries the owner's latest configuration.  Counts as a publish,
  /// never as an accepted offer — an overwrite that cannot be rejected
  /// carries no acceptance signal.
  void store(std::uint64_t tick, csp::Cost cost, std::span<const int> values,
             std::size_t publisher = kNoPublisher);

  /// Copy the entry into `out` if it is fresh at time `now` and its cost is
  /// strictly below `below`; returns its cost or csp::kInfiniteCost.
  /// `below` = csp::kInfiniteCost adopts any fresh entry (migration).
  /// An entry stamped with `exclude_publisher` is invisible: the
  /// asynchronous mid-walk gate passes its own walker id so a shared slot
  /// (or a self-loop) never hands a walker back its own publication —
  /// that "adoption" would be a no-op assign that wipes tabu state and
  /// inflates the adoption counter.  Reset-time adoption excludes nobody:
  /// restarting from your *own* recorded crossroad is the paper's
  /// future-work semantics, since the reset abandons the current position
  /// anyway.
  csp::Cost take_if_better(std::uint64_t now, csp::Cost below,
                           std::vector<int>& out,
                           std::size_t exclude_publisher = kNoPublisher) const;

  /// Publish events of any kind (offer calls accepted or not, plus every
  /// store): the denominator of the exchange-traffic counters.
  [[nodiscard]] std::uint64_t publishes() const;

  /// Keep-best offers actually accepted (strictly improving, or replacing a
  /// stale entry).  Stores never count: acceptance of an unconditional
  /// overwrite is vacuous.
  [[nodiscard]] std::uint64_t accepted_offers() const;

  /// Verbatim slot state for pool checkpointing (PoolCheckpoint::EliteSlot):
  /// the entry, its freshness tick and publisher stamp, and both traffic
  /// counters.  restore() makes the slot indistinguishable from the one
  /// snapshot() saw, so a resumed run's exchange behaviour and counters
  /// continue exactly.
  struct Snapshot {
    bool has_entry = false;
    csp::Cost cost = 0;
    std::vector<int> values;
    std::uint64_t tick = 0;
    std::size_t publisher = kNoPublisher;
    std::uint64_t publishes = 0;
    std::uint64_t accepted = 0;

    [[nodiscard]] bool operator==(const Snapshot&) const = default;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  /// Requires mutex_ held.
  [[nodiscard]] bool stale(std::uint64_t now) const noexcept {
    return decay_ != 0 && now > entry_tick_ && now - entry_tick_ > decay_;
  }

  mutable std::mutex mutex_;
  const std::uint64_t decay_;
  bool has_entry_ = false;
  csp::Cost best_cost_ = csp::kInfiniteCost;
  std::vector<int> best_values_;
  std::uint64_t entry_tick_ = 0;
  std::size_t entry_publisher_ = kNoPublisher;
  std::uint64_t publishes_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace cspls::parallel
