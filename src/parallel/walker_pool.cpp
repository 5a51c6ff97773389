#include "parallel/walker_pool.hpp"

#include <stdexcept>

#include "parallel/job_execution.hpp"

namespace cspls::parallel {

std::uint64_t MultiWalkReport::total_iterations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : walkers) total += w.result.stats.iterations;
  return total;
}

void validate_options(const WalkerPoolOptions& options) {
  if (options.num_walkers == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: num_walkers must be at least 1");
  }
  const CommunicationPolicy& comm = options.communication;
  if (comm.mode == CommMode::kAsync && !comm.exchanging()) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.mode = async requires an "
        "exchanging strategy (async gossip over Exchange::kNone would "
        "silently never adopt)");
  }
  if (!comm.exchanging()) return;  // knobs are ignored without an exchange
  if (comm.period == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.period must be non-zero with an "
        "exchanging strategy (period 0 would silently never publish)");
  }
  if (!(comm.adopt_probability >= 0.0 && comm.adopt_probability <= 1.0)) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.adopt_probability must be in "
        "[0, 1]");
  }
  if (comm.neighborhood == Neighborhood::kIsolated) {
    throw std::invalid_argument(
        "WalkerPoolOptions: an isolated neighborhood cannot exchange; pick "
        "a connected neighborhood or Exchange::kNone");
  }
  if (comm.exchange == Exchange::kDecayElite && comm.decay == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.decay must be >= 1 for the "
        "decay-elite strategy (0 never forgets, which is plain elite)");
  }
  if (comm.exchange == Exchange::kElite && comm.decay != 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.decay is meaningless for the "
        "elite strategy (it never forgets); use Exchange::kDecayElite");
  }
}

MultiWalkReport WalkerPool::run(const csp::Problem& prototype) const {
  return run(prototype, core::StopToken{});
}

MultiWalkReport WalkerPool::run(const csp::Problem& prototype,
                                const core::StopToken& external) const {
  return detail::JobExecution(prototype, options_, external).run();
}

}  // namespace cspls::parallel
