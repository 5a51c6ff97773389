// The benchmark's workloads and its traced layer ladder.
//
//   race-suite      closed loop, one caller: api::Solver::solve of 4-walker
//                   threaded first-finisher races over all eight models.
//   lanes-open      open loop, Poisson arrivals from one generator thread:
//                   command lines through serve::Session::handle_line in
//                   three priority lanes, at a fixed rate and then up a
//                   rate ladder to find max_rate_at_slo.
//   http-keepalive  closed loop, one persistent connection per core:
//                   POST /api solves (some streaming) and GET /stats
//                   through serve::HttpServer over loopback.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

/// High-lane p99 limit of max_rate_at_slo on lanes-open (also stated in
/// BENCHMARK.json's reason for the workload).
inline constexpr double kHighP99LimitMs = 20.0;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed length of the run
  Tracer* tracer = nullptr;
  bool rate_search = true;  ///< lanes-open: climb the rate ladder too
  int setups = 9;           ///< set-ups timed; setup_s is their median
};

struct WorkloadRun {
  Outcome outcome;  ///< end-to-end metrics and answer checks
  std::map<std::string, Metric> layer;  ///< per-layer metrics of the traffic
  double main_metric = 0.0;  ///< the metric trace.overhead_share compares
};

/// One race-suite model: instance spec and races per suite pass.
struct RaceModel {
  std::string name;
  std::string spec;
  int per_pass = 1;
};
[[nodiscard]] const std::vector<RaceModel>& race_models();
/// The race-suite request for `spec` with master seed `seed`.
[[nodiscard]] api::SolveRequest race_request(const RaceModel& model,
                                             std::size_t walkers,
                                             std::uint64_t seed);

[[nodiscard]] WorkloadRun run_race_suite(const RunConfig& config);
[[nodiscard]] WorkloadRun run_lanes_open(const RunConfig& config);
[[nodiscard]] WorkloadRun run_http_keepalive(const RunConfig& config);

/// The layer ladder: each layer's entry point driven on its own with
/// seeded samples of the workloads' requests.  Answer checks fail into
/// `checks`.
[[nodiscard]] std::map<std::string, Metric> run_layer_ladder(
    std::uint64_t seed, Tracer& tracer, Outcome& checks);

}  // namespace perfbench
