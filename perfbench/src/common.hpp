// Shared pieces of the benchmark harness: the clock, seeded input
// generation, result collection, answer checks and span recording.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "api/solve.hpp"
#include "csp/problem.hpp"
#include "stats.hpp"

namespace cspls::problems {}
namespace cspls::serve {}
namespace cspls::sim {}

namespace perfbench {

namespace api = cspls::api;
namespace core = cspls::core;
namespace csp = cspls::csp;
namespace parallel = cspls::parallel;
namespace problems = cspls::problems;
namespace serve = cspls::serve;
namespace sim = cspls::sim;
namespace util = cspls::util;

using Clock = std::chrono::steady_clock;

/// Milliseconds since the harness started (one epoch for every span).
[[nodiscard]] double now_ms();
/// Sleep until the epoch-relative time `due_ms`, spinning the last stretch
/// so open-loop sends leave close to their due time.
void sleep_until_ms(double due_ms);

/// Seeded input generator.  The benchmark's inputs depend only on the
/// workload seed and this engine, never on the program's own RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  [[nodiscard]] std::uint64_t next() { return engine_(); }
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  [[nodiscard]] std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }
  /// Exponential inter-arrival gap (seconds) at `rate` per second.
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  /// An independent generator for sub-stream `index`.
  [[nodiscard]] Rng fork(std::uint64_t index) {
    return Rng(next() ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  }

 private:
  std::mt19937_64 engine_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> metrics;
  bool invalid = false;  ///< a phase could not be scored (see notes)
  std::vector<std::string> notes;

  void fail(std::string why);
  void set(const std::string& name, double value, std::string unit);
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Engine parameters a solvable request carries: the model's own tuning
/// defaults with restarts allowed, so every solve ends solved.
[[nodiscard]] core::Params solvable_params(const std::string& spec);

/// A request for `spec` with the given shape and master seed.
[[nodiscard]] api::SolveRequest make_request(const std::string& spec,
                                             std::size_t walkers,
                                             parallel::Scheduling scheduling,
                                             std::uint64_t seed);

/// The report without its timing fields, for byte-identity comparisons.
[[nodiscard]] api::SolveReport without_timing(api::SolveReport report);

/// Answer checks: every claimed solution is re-verified on a fresh
/// instance that no solver ever touched.
class Checker {
 public:
  /// "" when the report's claimed solution verifies; else the reason.
  [[nodiscard]] std::string verify_solved(const std::string& spec,
                                          const api::SolveReport& report);

 private:
  std::map<std::string, std::unique_ptr<csp::Problem>> fresh_;
};

/// The expected iteration count of a fixed-budget run: every walker runs
/// restart_limit * (max_restarts + 1) iterations.
[[nodiscard]] std::uint64_t budgeted_iterations(
    const api::SolveRequest& request);

/// In-memory span store; written out when the run ends.  Untraced runs
/// pass no Tracer at all.
class Tracer {
 public:
  /// Record a span; returns its id.
  std::uint64_t add(std::string name, std::uint64_t request,
                    std::uint64_t parent, double start_ms, double end_ms);
  [[nodiscard]] std::uint64_t next_request();
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_request_ = 1;
};

}  // namespace perfbench
