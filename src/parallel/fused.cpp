#include "parallel/fused.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "parallel/job_execution.hpp"

namespace cspls::parallel {

std::vector<std::size_t> FusedRun::run(std::span<const FusedJob> jobs,
                                       const FusedSink& sink) const {
  // Validate the whole batch before any member does work: a degenerate
  // configuration throws here, leaving no sibling half-run.
  std::vector<std::unique_ptr<detail::JobExecution>> members;
  members.reserve(jobs.size());
  for (const FusedJob& job : jobs) {
    if (job.prototype == nullptr) {
      throw std::invalid_argument("FusedJob: prototype must be non-null");
    }
    members.push_back(std::make_unique<detail::JobExecution>(
        *job.prototype, job.options, job.stop));
  }

  std::size_t team = options_.num_threads;
  if (team == 0) {
    team = std::thread::hardware_concurrency() == 0
               ? 2
               : std::thread::hardware_concurrency();
  }
  // Each slot is written only by the team thread that took its member.
  std::vector<char> withdrawn(jobs.size(), 0);
  const auto run_member = [&](std::size_t member) {
    bool admitted = true;
    try {
      admitted = !options_.admit || options_.admit(member);
    } catch (...) {
      admitted = false;  // a throwing gate withdraws, never crashes
    }
    if (!admitted) {
      withdrawn[member] = 1;
      return;
    }
    MultiWalkReport report = members[member]->run();
    if (sink) sink(member, std::move(report));
  };
  detail::run_tickets(jobs.size(), std::min(team, jobs.size()), run_member);

  std::vector<std::size_t> withdrawn_members;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (withdrawn[j] != 0) withdrawn_members.push_back(j);
  }
  return withdrawn_members;
}

}  // namespace cspls::parallel
