// Requests and answer checks shared by the two serving workloads
// (lanes-open over Session::handle_line, http-keepalive over HttpServer).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/solve.hpp"
#include "common.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

enum Lane : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::array<std::string_view, 3> kLaneNames = {"high", "normal",
                                                               "low"};

/// Tiny one-walker sequential solves: the warm fused path.
inline const std::vector<std::string> kTinySpecs = {
    "costas:8", "queens:32", "langford:12", "all-interval:10"};
/// Two-walker threaded solves of about a millisecond: the service path.
inline const std::vector<std::string> kNormalSpecs = {"all-interval:14",
                                                      "perfect-square:5"};
/// Unsolvable instance of the low lane's fixed-budget runs.
inline constexpr std::string_view kLowSpec = "langford:5";
inline constexpr std::uint64_t kLowRestartLimit = 100'000;

/// One generated solve command.
struct ServeRequest {
  int lane = kHigh;
  api::SolveRequest request;
  bool stream = false;
  std::uint64_t sample_period = 0;
  bool cancel = false;  ///< the client cancels it shortly after `accepted`
  std::string tag;
  std::string line;  ///< the encoded command envelope
};

/// A request tag: `prefix` followed by the request's index.
inline std::string tag_of(char prefix, std::size_t index) {
  std::string tag(1, prefix);
  tag += std::to_string(index);
  return tag;
}

/// Builds requests with seeded master seeds and cached engine parameters.
class RequestFactory {
 public:
  RequestFactory();
  [[nodiscard]] ServeRequest tiny(Rng& rng);
  [[nodiscard]] ServeRequest normal(Rng& rng);
  /// A fixed-budget run on the unsolvable low-lane instance.
  [[nodiscard]] ServeRequest low(Rng& rng, bool cancel);
  /// A streaming tiny solve whose samples each arrive as their own event.
  [[nodiscard]] ServeRequest streaming(Rng& rng, int lane);
  /// Encode `request` (with `tag`) as its wire line.
  static void encode(ServeRequest& request, std::string tag);

 private:
  [[nodiscard]] ServeRequest solvable(const std::string& spec,
                                      std::size_t walkers,
                                      parallel::Scheduling scheduling,
                                      Rng& rng, int lane);
  std::vector<std::pair<std::string, core::Params>> params_;
};

struct Event {
  double t_ms = 0.0;
  std::string line;
};

/// A request as the client saw it.
struct ServeRecord {
  ServeRequest req;
  double due_ms = 0.0;   ///< when it was due to be sent
  double send_ms = 0.0;  ///< handle_line call / request write started
  double sent_ms = 0.0;  ///< handle_line returned / request write finished
  double end_ms = 0.0;   ///< final answer (report event / last chunk)
  std::vector<Event> events;  ///< this job's event lines, in arrival order
  std::uint64_t bytes = 0;    ///< response bytes (HTTP)
  std::uint64_t chunks = 0;   ///< response chunks (HTTP)
  bool sent = false;
};

/// A record after decoding and checking.
struct Checked {
  bool ok = false;
  std::string why;
  bool cancelled = false;  ///< the client's cancel took effect
  std::optional<api::SolveReport> report;
  double accepted_ms = 0.0;
  double report_ms = 0.0;
};

/// Decode a record's events and check them: the event grammar (one
/// `accepted`, strictly decreasing `sample`s, `preempted` notices, exactly
/// one final `report`), the status, solved answers re-verified on a fresh
/// instance, and fixed-budget runs reporting exactly their budget.
[[nodiscard]] Checked check_record(const ServeRecord& record,
                                   Checker& checker);

/// Re-solve a seeded sample of the sequential requests with
/// api::Solver::solve and compare the reports with timing fields excluded;
/// mismatches are failed in `outcome`.
void check_against_solver(const std::vector<ServeRecord>& records,
                                 const std::vector<Checked>& checked,
                                 std::size_t sample, Rng& rng,
                                 Outcome& outcome);

/// Record spans for one decoded serving request under the tracer, named
/// "<workload>/<span>"; the root starts at `origin_ms` (the due time of an
/// open-loop arrival, the write of a closed-loop request).
void trace_record(Tracer& tracer, std::string_view workload,
                  const ServeRecord& record, const Checked& checked,
                  double decode_start_ms, double decode_end_ms,
                  double origin_ms, std::string_view send_span);

/// Scheduler counters a run accumulated (after - before).
[[nodiscard]] serve::SchedulerStats stats_delta(
    const serve::SchedulerStats& before, const serve::SchedulerStats& after);

}  // namespace perfbench
