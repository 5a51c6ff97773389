// Synchronous façade over the full stack: spec string -> problem instance,
// SolveRequest -> WalkerPool policies, StopToken -> cancellation/deadline,
// MultiWalkReport -> SolveReport.  One call replaces the hand-assembled
// registry + WalkerPoolOptions + report-interpretation plumbing every
// harness and example used to reimplement.
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "api/solve.hpp"

namespace cspls::api {

/// Out-of-band observation channels for a solve run by the serving layer:
/// a liveness counter for watchdog supervision and a live cost-sample sink
/// for streaming anytime responses.  All observational — wiring them cannot
/// change the outcome of a seeded run.
struct SolveCallbacks {
  /// Bumped by every walker (see core::Hooks::heartbeat); null disables.
  std::atomic<std::uint64_t>* heartbeat = nullptr;
  /// Called with (walker_id, iteration, cost) at iteration 0 and every
  /// `sample_period` iterations of each walk; invoked from walker threads,
  /// so it must be thread-safe.  Empty disables.
  std::function<void(std::size_t, std::uint64_t, csp::Cost)> sample_sink;
  std::uint64_t sample_period = 0;
  /// Cooperative preemption: flip `*preempt` to true and every walker stops
  /// at its next safe point; when `checkpoint_out` is also wired the run
  /// surrenders a PoolCheckpoint there (SolveReport::preempted set) that a
  /// later request can hand back via SolveRequest::resume_from.  A capture
  /// failure leaves *checkpoint_out empty and the run reports a plain
  /// cancel.  Unlike the observation channels these do affect the outcome —
  /// but only the stopping point, never the trajectory up to it.
  const std::atomic<bool>* preempt = nullptr;
  std::optional<parallel::PoolCheckpoint>* checkpoint_out = nullptr;
};

class Solver {
 public:
  /// Run `request` to completion.  Throws std::invalid_argument on a
  /// malformed request (unknown problem name, unusable size) — the message
  /// lists the valid problem names.
  ///
  /// Determinism: with no deadline the run is exactly the equivalent
  /// direct WalkerPool::run for the request's master seed.
  [[nodiscard]] static SolveReport solve(const SolveRequest& request) {
    return solve(request, core::StopToken{}, SolveCallbacks{});
  }

  /// The serving tier's entry point: full StopToken control — a caller-owned
  /// cancel flag (the run stops within one engine polling period, reporting
  /// the best configuration reached with SolveReport::cancelled set) and
  /// any deadline, with the request's deadline_ms applied on top — plus the
  /// observation channels (watchdog heartbeat, streaming sample sink).
  /// Validates the retry/warm-start knobs along with the rest of the
  /// request.
  [[nodiscard]] static SolveReport solve(const SolveRequest& request,
                                         core::StopToken token,
                                         const SolveCallbacks& callbacks);
};

}  // namespace cspls::api
