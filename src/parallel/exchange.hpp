// ExchangeStrategy — what flows over the neighbourhood edges, and when.
//
// Together with neighborhood.hpp this spans the communication design space
// as a free product instead of a closed list of schemes: a
// CommunicationPolicy is two orthogonal choices plus three knobs:
//
//   Exchange::kNone        no communication (the paper's scheme) — the
//                          neighbourhood is irrelevant and no slots exist;
//   Exchange::kElite       periodic keep-best publish to the walker's own
//                          slot, adopt-on-reset of the best strictly
//                          improving entry among the in-neighbour slots
//                          (PR-1's shared/ring elite exchange, generalized);
//   Exchange::kMigration   island model: the walker's *current* whole
//                          configuration overwrites its slot every period,
//                          and a reset adopts the lowest-cost in-neighbour
//                          migrant regardless of whether it improves —
//                          diversification, not elitism;
//   Exchange::kDecayElite  kElite over slots whose entries age out after
//                          `decay` pool-wide publish ticks, so stale
//                          crossroads are forgotten instead of pinning every
//                          reset to one ancient low-cost basin.
//
// Knobs: `period` (iterations between publishes — the paper's goal 1:
// transfers stay rare), `adopt_probability` (chance that a partial reset
// consults the neighbours at all — goal 2: restart from recorded
// crossroads), and `decay` (staleness bound in publish ticks; required for
// kDecayElite, optional freshness filter for kMigration, rejected for
// kElite which by definition never forgets).
//
// A third orthogonal axis, CommMode, decides *when* adoption may happen:
// kOnReset confines it to partial resets (the PR-4 semantics, and the
// restart-time elite adoption the paper's communication analysis stops
// at); kAsync additionally gates a staleness-bounded pull every `period`
// iterations *while walking* (the cooperative gossip of the X10 and Cell
// BE follow-ups), through the engine's mid-walk adoption hook — strict
// improvement for the elite strategies, unconditional for migration.
//
// Determinism: adoption scans the in-neighbour slots in deterministic graph
// order and draws exactly one RNG value (the adopt_probability gate) per
// consultation — whether reset-time or mid-walk — so a single-source
// on-reset graph reproduces the PR-1 trajectories byte-for-byte and
// sequential runs of any graph (either mode) are exactly reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/adaptive_search.hpp"
#include "parallel/elite_pool.hpp"
#include "parallel/neighborhood.hpp"
#include "util/fault.hpp"

namespace cspls::parallel {

enum class Exchange {
  kNone,        ///< no communication (the paper's independent scheme)
  kElite,       ///< periodic keep-best publish, adopt-if-better on reset
  kMigration,   ///< whole-configuration overwrite + unconditional adopt
  kDecayElite,  ///< kElite whose entries age out after `decay` ticks
};

/// When adoption may happen — the third orthogonal communication axis.
enum class CommMode {
  kOnReset,  ///< adopt only when a partial reset fires (restart-time elite)
  kAsync,    ///< also pull from the in-neighbour slots mid-walk every period
};

/// Communication policy: the exchange graph, the strategy flowing over it,
/// and the shared knobs (all ignored under Exchange::kNone).
struct CommunicationPolicy {
  Neighborhood neighborhood = Neighborhood::kIsolated;
  Exchange exchange = Exchange::kNone;
  /// When adoption may happen: on partial resets only (the PR-4 default,
  /// byte-identical trajectories), or additionally mid-walk every `period`
  /// iterations (asynchronous gossip).  Requires an exchanging strategy.
  CommMode mode = CommMode::kOnReset;
  /// Walkers publish every `period` iterations (the paper's goal 1:
  /// minimise data transfers).  Must be non-zero when exchanging.
  std::uint64_t period = 1000;
  /// Probability that a partial reset consults the neighbour slots instead
  /// of randomizing (goal 2: restart from recorded crossroads).
  double adopt_probability = 0.5;
  /// Staleness bound in pool-wide publish ticks: entries older than this
  /// are invisible and forgotten.  Required >= 1 for kDecayElite, optional
  /// for kMigration (0 = migrants never expire), must be 0 for kElite.
  std::uint64_t decay = 0;

  [[nodiscard]] bool exchanging() const noexcept {
    return exchange != Exchange::kNone;
  }

  [[nodiscard]] bool operator==(const CommunicationPolicy&) const = default;
};

/// The slots plus the pool-wide exchange clock backing one WalkerPool run.
/// Construct once per run; comm_hooks wires each walker's engine hooks to
/// it.  Slot addresses are stable (unique_ptr) and every member is safe
/// under concurrent walker access.
class CommChannels {
 public:
  CommChannels(const CommunicationPolicy& policy, std::size_t num_walkers);

  /// True when the policy allocated any slots (i.e. communication is on).
  [[nodiscard]] bool active() const noexcept { return !slots_.empty(); }

  [[nodiscard]] std::size_t num_slots() const noexcept { return slots_.size(); }

  [[nodiscard]] ElitePool& slot(std::size_t index) { return *slots_[index]; }

  /// Checkpoint restore: rewind the exchange clock and the adoption counter
  /// to a captured position (slots restore individually via
  /// ElitePool::restore).  Call before any walker runs.
  void restore_counters(std::uint64_t clock, std::uint64_t adoptions) noexcept {
    clock_.store(clock, std::memory_order_relaxed);
    adoptions_.store(adoptions, std::memory_order_relaxed);
  }

  /// Advance the exchange clock by one publish event and return its time.
  std::uint64_t next_tick() noexcept {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Read the clock without advancing it (adopt-side staleness checks).
  [[nodiscard]] std::uint64_t now() const noexcept {
    return clock_.load(std::memory_order_relaxed);
  }

  /// Publish events across all slots, accepted or not
  /// (MultiWalkReport::comm_publishes).
  [[nodiscard]] std::uint64_t publishes() const;

  /// Improving keep-best publishes accepted across all slots
  /// (MultiWalkReport::elite_accepted).  Migration's unconditional stores
  /// count as publishes, never as accepts — an overwrite carries no signal.
  [[nodiscard]] std::uint64_t accepted() const;

  /// Record one adoption event: a configuration actually assigned from an
  /// in-neighbour slot (not every take_if_better probe of the multi-source
  /// scan).  Called by the comm_hooks adoption path, reset-time or mid-walk.
  void record_adoption() noexcept {
    adoptions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Adoption events across the pool (MultiWalkReport::comm_adoptions).
  [[nodiscard]] std::uint64_t adoptions() const noexcept {
    return adoptions_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<ElitePool>> slots_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> adoptions_{0};
};

/// Engine hooks for walker `walker` of `num_walkers` under `policy`:
/// publish to the walker's slot every `period` iterations, adopt from its
/// in-neighbour slots on partial reset with probability `adopt_probability`
/// — and, under CommMode::kAsync, also through the engine's mid-walk gate
/// every `period` iterations (same single-draw discipline, staleness
/// bounded by `decay`; strict improvement for elite, unconditional for
/// migration).  Returns empty hooks when the policy does not exchange or
/// the walker has no slots to talk to.  `channels` must outlive the
/// returned hooks.
///
/// `fault` (optional) arms the communication fault sites: each publish
/// probes `elite_publish` and each adoption gate probes `elite_adopt` —
/// kCorrupt drops the message (a torn publish / discarded adoption),
/// kThrow propagates out of the engine for the pool's crash containment.
/// The session must outlive the returned hooks.
[[nodiscard]] core::Hooks comm_hooks(const CommunicationPolicy& policy,
                                     CommChannels& channels,
                                     std::size_t walker,
                                     std::size_t num_walkers,
                                     util::fault::Session* fault = nullptr);

}  // namespace cspls::parallel
