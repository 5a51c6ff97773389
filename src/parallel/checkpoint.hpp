// PoolCheckpoint — a whole WalkerPool run suspended at safe points, as one
// serializable value.
//
// When a run is cooperatively preempted (WalkerPoolOptions::preempt), every
// walker drains to its next safe point and the pool assembles:
//
//   * one entry per walker — mid-run walkers carry a core::Checkpoint
//     (exact-resume state), already-finished walkers carry their final
//     Result verbatim, and a walker the stopped pool never started keeps
//     the entry it was resumed with (pending on a fresh run: it runs from
//     its untouched RNG stream on resume);
//   * the communication state — every ElitePool slot's entry and counters,
//     the pool-wide exchange clock and the adoption counter — so a resumed
//     run's exchange traffic and counters continue exactly where they
//     stopped.
//
// Every checkpoint a pool hands out passes the check a resume makes.
// Resuming a pool from its checkpoint (WalkerPoolOptions::resume) then
// produces a MultiWalkReport byte-identical (timing fields excepted) to the
// run that was never preempted — the property the serving tier's
// running-job preemption and the distributed pool's walker migration both
// build on.  The JSON schema is strict and versioned
// ("cspls-pool-checkpoint/2"): unknown, missing and mistyped members
// reject, naming the member.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/result.hpp"
#include "parallel/elite_pool.hpp"
#include "util/json.hpp"

namespace cspls::parallel {

struct PoolCheckpoint {
  static constexpr std::string_view kSchema = "cspls-pool-checkpoint/2";

  enum class WalkerStage : std::uint8_t {
    kPending,  ///< never started; resume runs it from its stream's start
    kRunning,  ///< suspended mid-run; `checkpoint` is its exact-resume state
    kDone,     ///< finished before the preemption; `result` is final
  };
  static constexpr util::NameTable<WalkerStage, WalkerStage::kDone>
      kStageNames{"pending", "running", "done"};

  struct WalkerEntry {
    WalkerStage stage = WalkerStage::kPending;
    core::Checkpoint checkpoint;  ///< kRunning only
    core::Result result;          ///< kDone only
    std::uint64_t injected_faults = 0;  ///< kDone only

    [[nodiscard]] bool operator==(const WalkerEntry&) const = default;
  };

  /// One ElitePool slot, verbatim.
  using EliteSlot = ElitePool::Snapshot;

  std::vector<WalkerEntry> walkers;  ///< indexed by walker id
  std::vector<EliteSlot> elite;      ///< empty when communication is off
  std::uint64_t comm_clock = 0;
  std::uint64_t comm_adoptions = 0;

  [[nodiscard]] util::Json to_json() const;
  /// Strict decode: rejects a wrong/missing schema tag, unknown, missing or
  /// mistyped members and malformed walker entries, throwing
  /// std::invalid_argument that names the member.  The second form decodes
  /// a checkpoint nested at `path` (a SolveRequest's `resume_from`).
  [[nodiscard]] static PoolCheckpoint from_json(const util::Json& json);
  [[nodiscard]] static PoolCheckpoint from_json(const util::Json& json,
                                                const util::JsonPath& path);

  [[nodiscard]] bool operator==(const PoolCheckpoint&) const = default;
};

}  // namespace cspls::parallel
