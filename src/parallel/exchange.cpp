#include "parallel/exchange.hpp"

#include <utility>

namespace cspls::parallel {

CommChannels::CommChannels(const CommunicationPolicy& policy,
                           std::size_t num_walkers) {
  if (!policy.exchanging()) return;
  // kElite never forgets (decay is validated to 0 there); the decaying
  // strategies thread the staleness bound into every slot.
  const std::uint64_t decay =
      policy.exchange == Exchange::kElite ? 0 : policy.decay;
  const std::size_t count = slot_count(policy.neighborhood, num_walkers);
  slots_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    slots_.push_back(std::make_unique<ElitePool>(decay));
  }
}

std::uint64_t CommChannels::publishes() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->publishes();
  return total;
}

std::uint64_t CommChannels::accepted() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->accepted_offers();
  return total;
}

core::Hooks comm_hooks(const CommunicationPolicy& policy,
                       CommChannels& channels, std::size_t walker,
                       std::size_t num_walkers, util::fault::Session* fault) {
  core::Hooks hooks;
  if (!policy.exchanging() || !channels.active()) return hooks;

  const bool migrate = policy.exchange == Exchange::kMigration;
  ElitePool* publish =
      &channels.slot(publish_slot(policy.neighborhood, walker, num_walkers));

  hooks.observer_period = policy.period;
  hooks.observer = [publish, &channels, migrate, walker, fault](
                       std::uint64_t, csp::Cost cost,
                       std::span<const int> values) {
    if (util::fault::probe(fault, util::fault::Site::kElitePublish) ==
        util::fault::Action::kCorrupt) {
      return;  // torn publish: the message is dropped, the walk continues
    }
    const std::uint64_t tick = channels.next_tick();
    if (migrate) {
      publish->store(tick, cost, values, walker);
    } else {
      publish->offer(tick, cost, values, walker);
    }
  };

  std::vector<ElitePool*> sources;
  for (const std::size_t s :
       adopt_slots(policy.neighborhood, walker, num_walkers)) {
    sources.push_back(&channels.slot(s));
  }
  if (sources.empty()) return hooks;  // e.g. single-walker torus/hypercube

  // One adoption scan serves both hooks; they differ only in the
  // self-publication filter.  Reset-time adoption excludes nobody (your
  // own recorded crossroad is a legitimate restart point — the reset
  // abandons the current position anyway); the mid-walk gate excludes the
  // walker's own entries, because pulling back your own latest publication
  // from a shared slot or self-loop is a no-op assign that would wipe the
  // tabu state and count a phantom adoption.
  const auto make_adopt = [&policy, &channels, migrate, fault,
                           sources = std::move(sources)](
                              std::size_t exclude_publisher) {
    return [sources, &channels, migrate, exclude_publisher, fault,
            p = policy.adopt_probability](csp::Problem& problem,
                                          util::Xoshiro256& rng) {
      // Exactly one RNG draw per gate whether or not anything is adopted,
      // so the communication gate never desynchronizes a walker's stream
      // from the equivalent PR-1 run (and mid-walk gates stay
      // reproducible).
      if (!rng.chance(p)) return false;
      if (util::fault::probe(fault, util::fault::Site::kEliteAdopt) ==
          util::fault::Action::kCorrupt) {
        return false;  // incoming message discarded as corrupt
      }
      const std::uint64_t now = channels.now();
      std::vector<int> incoming;
      std::vector<int> best;
      bool found = false;
      // Scan the in-neighbour slots in graph order for the lowest-cost
      // fresh entry.  Elite only adopts a strict improvement on the
      // walker's own cost; migration adopts the best migrant regardless of
      // it (diversification, not elitism) — the infinite threshold makes
      // any fresh entry beat "nothing" while still skipping (and not
      // copying) migrants worse than one already in hand.
      csp::Cost below = migrate ? csp::kInfiniteCost : problem.total_cost();
      for (ElitePool* source : sources) {
        const csp::Cost cost =
            source->take_if_better(now, below, incoming, exclude_publisher);
        if (cost == csp::kInfiniteCost) continue;
        best.swap(incoming);
        below = cost;
        found = true;
      }
      if (!found) return false;
      problem.assign(best);
      channels.record_adoption();
      return true;
    };
  };

  hooks.on_reset = make_adopt(ElitePool::kNoPublisher);
  if (policy.mode == CommMode::kAsync) {
    // Asynchronous gossip: the same staleness-bounded, single-draw adoption
    // scan also runs mid-walk every `period` iterations, so a walker can
    // pull a better configuration without waiting for its reset policy.
    hooks.mid_walk = make_adopt(walker);
    hooks.mid_walk_period = policy.period;
  }
  return hooks;
}

}  // namespace cspls::parallel
