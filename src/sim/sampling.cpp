#include "sim/sampling.hpp"

#include "parallel/walker_pool.hpp"

namespace cspls::sim {

EmpiricalDistribution SampleSet::seconds_distribution() const {
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.solved) xs.push_back(s.seconds);
  }
  return EmpiricalDistribution(std::move(xs));
}

EmpiricalDistribution SampleSet::iterations_distribution() const {
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.solved) xs.push_back(static_cast<double>(s.iterations));
  }
  return EmpiricalDistribution(std::move(xs));
}

double SampleSet::solve_rate() const {
  if (samples.empty()) return 0.0;
  std::size_t solved = 0;
  for (const auto& s : samples) solved += s.solved ? 1 : 0;
  return static_cast<double>(solved) / static_cast<double>(samples.size());
}

double SampleSet::seconds_per_iteration() const {
  double seconds = 0.0;
  double iterations = 0.0;
  for (const auto& s : samples) {
    seconds += s.seconds;
    iterations += static_cast<double>(s.iterations);
  }
  return iterations > 0.0 ? seconds / iterations : 0.0;
}

SampleSet collect_walk_samples(const csp::Problem& prototype,
                               const SamplingOptions& options) {
  if (options.num_samples == 0) return {};
  core::Params params;
  if (options.params.has_value()) {
    params = *options.params;
  } else {
    params = core::Params::from_hints(prototype.tuning(),
                                      prototype.num_variables());
    // A single *walk* sample should terminate with a solution essentially
    // always; runaway walks restart rather than fail.
    params.max_restarts = 1000;
  }
  // One sequential pool, one walker per sample: walker i runs on RNG
  // stream i, exactly as it would inside the racing engine.
  parallel::WalkerPoolOptions pool;
  pool.num_walkers = options.num_samples;
  pool.master_seed = options.master_seed;
  pool.params = params;
  pool.scheduling = parallel::Scheduling::kSequential;
  pool.termination = parallel::Termination::kBestAfterBudget;
  const auto report = parallel::WalkerPool(pool).run(prototype);

  SampleSet set;
  set.samples.reserve(report.walkers.size());
  for (const auto& walker : report.walkers) {
    set.samples.push_back(WalkSample{walker.result.solved,
                                     walker.result.stats.seconds,
                                     walker.result.stats.iterations});
  }
  return set;
}

}  // namespace cspls::sim
