#include "common.hpp"

#include <sys/resource.h>

#include <thread>

#include "core/params.hpp"
#include "problems/spec.hpp"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

void sleep_until_ms(double due_ms) {
  constexpr double kSpinMs = 0.2;
  const double ahead = due_ms - now_ms();
  if (ahead > kSpinMs) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ahead - kSpinMs));
  }
  while (now_ms() < due_ms) {
  }
}

void Outcome::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void Outcome::set(const std::string& name, double value, std::string unit) {
  metrics[name] = Metric{value, std::move(unit)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

core::Params solvable_params(const std::string& spec) {
  const auto problem = problems::instantiate(problems::parse_spec(spec));
  core::Params params =
      core::Params::from_hints(problem->tuning(), problem->num_variables());
  params.max_restarts = 1000;
  return params;
}

api::SolveRequest make_request(const std::string& spec, std::size_t walkers,
                               parallel::Scheduling scheduling,
                               std::uint64_t seed) {
  api::SolveRequest request;
  request.problem = spec;
  request.walkers = walkers;
  request.scheduling = scheduling;
  request.seed = seed;
  return request;
}

api::SolveReport without_timing(api::SolveReport report) {
  report.wall_seconds = 0.0;
  report.time_to_solution_seconds = 0.0;
  for (auto& walker : report.walkers) walker.seconds = 0.0;
  return report;
}

std::string Checker::verify_solved(const std::string& spec,
                                   const api::SolveReport& report) {
  if (!report.solved) return spec + ": not solved";
  auto& fresh = fresh_[spec];
  if (!fresh) fresh = problems::instantiate(problems::parse_spec(spec));
  if (report.solution.size() != fresh->num_variables() ||
      !fresh->verify(report.solution)) {
    return spec + ": claimed solution fails verify";
  }
  return {};
}

std::uint64_t budgeted_iterations(const api::SolveRequest& request) {
  const core::Params& params = *request.params;
  return request.walkers * params.restart_limit *
         (static_cast<std::uint64_t>(params.max_restarts) + 1);
}

std::uint64_t Tracer::add(std::string name, std::uint64_t request,
                          std::uint64_t parent, double start_ms,
                          double end_ms) {
  std::lock_guard lock(m_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{std::move(name), id, parent, request, start_ms, end_ms});
  return id;
}

std::uint64_t Tracer::next_request() {
  std::lock_guard lock(m_);
  return next_request_++;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(m_);
  return spans_;
}

}  // namespace perfbench
