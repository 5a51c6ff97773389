// First-class, serializable walker state: everything the Adaptive Search
// engine needs to pause a walk at a safe point and later continue it
// *byte-identically* to the run that was never interrupted.
//
// The safe point is the engine's existing stop-poll site — the top of the
// iteration loop, before any RNG draw of that iteration — so a checkpoint
// is always a consistent between-iterations snapshot.  The captured state
// is exactly the mutable run state: the current and best configurations,
// the tabu/marking bookkeeping, the RNG stream position (xoshiro256**
// state words), the per-run counters, and the walk/restart position.  The
// per-variable error cache is deliberately NOT captured: it is a pure
// function of the configuration, so resume recomputes it on first use —
// the values the scan sees are identical either way.  Nor are cost
// samples: they stream through Hooks::sample as the walk runs, and the
// resumed walk's samples continue the preempted run's.
//
// The JSON schema is strict and versioned ("cspls-checkpoint/2"): unknown
// members reject, missing members reject, sizes must be mutually
// consistent, and an all-zero RNG state (which xoshiro256** cannot be in)
// rejects.  This is the unit the parallel layer aggregates into a
// PoolCheckpoint and the serving tier round-trips through a SolveRequest's
// `resume_from` member — the migration payload of the distributed-pool
// roadmap item.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/result.hpp"
#include "csp/cost.hpp"
#include "util/json.hpp"

namespace cspls::core {

struct Checkpoint {
  static constexpr std::string_view kSchema = "cspls-checkpoint/2";

  std::vector<int> values;       ///< current configuration
  csp::Cost cost = 0;            ///< its total cost (validated on resume)
  std::vector<int> best;         ///< best configuration across restarts
  csp::Cost best_cost = 0;
  std::vector<std::uint64_t> tabu_until;  ///< absolute-iteration freezes
  std::uint32_t marks_since_reset = 0;
  std::array<std::uint64_t, 4> rng_state{};  ///< xoshiro256** position
  RunStats stats;                ///< counters so far (seconds accumulated)
  std::uint64_t iter_in_walk = 0;
  std::uint32_t restarts_done = 0;

  [[nodiscard]] util::Json to_json() const;
  /// Strict decode: rejects a wrong/missing schema tag, unknown, missing or
  /// mistyped members, out-of-range integers, internally inconsistent sizes
  /// and an all-zero rng_state, throwing std::invalid_argument that names
  /// the member.  The second form decodes a checkpoint nested at `path`.
  [[nodiscard]] static Checkpoint from_json(const util::Json& json);
  [[nodiscard]] static Checkpoint from_json(const util::Json& json,
                                            const util::JsonPath& path);

  [[nodiscard]] bool operator==(const Checkpoint&) const = default;
};

// The codec of RunStats, which both this document (`stats`) and a
// finished walker's result carry.  The decoder names failures under `path`.
[[nodiscard]] util::Json to_json(const RunStats& stats);
[[nodiscard]] RunStats run_stats_from_json(const util::Json& json,
                                           const util::JsonPath& path);

}  // namespace cspls::core
