// Cooperative stop signal for the Adaptive Search engine.
//
// Replaces the engine's historical `const std::atomic<bool>*` stop
// parameter with one value carrying every way a walk can be cut short:
//
//   * up to two external cancel flags (the parallel runtime combines a
//     caller-supplied cancellation flag with its own first-finisher
//     completion flag), and
//   * an optional steady-clock deadline, which is what makes time-budgeted
//     runs expressible — the runtime-distribution line of work needs
//     "best configuration after t seconds", not "after n iterations".
//
// Polling is engine-rate (once per iteration) so it must stay cheap: flag
// loads are relaxed, and the deadline only reads the clock every
// kDeadlinePollStride polls.  Each walker keeps its *own copy* of the
// token (copies are cheap), so the throttling counter is never shared
// between threads.  A default-constructed token never fires — an engine
// run with an empty token is byte-for-byte the historical unstoppable run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/names.hpp"

namespace cspls::core {

/// What ended a walk early.  Recorded by the poll that observed the stop,
/// so interruption is attributed to its actual source — re-consulting the
/// clock or the flags after the fact would misattribute (e.g. a race that
/// finished normally just before a deadline, examined just after it).
enum class StopCause : std::uint8_t {
  kNone,       ///< not stopped
  kCancel,     ///< the token's own (primary) cancel flag
  kChained,    ///< a flag chained via also_cancelled_by (the pool's
               ///< internal first-finisher completion flag)
  kPreempted,  ///< a cooperative preemption flag chained via with_preempt:
               ///< drain to the next safe point and hand back a checkpoint
  kDeadline,   ///< the steady-clock deadline passed
  kFailed,     ///< the walk died on an exception; never produced by poll(),
               ///< recorded by the pool's crash containment with the
               ///< exception message in Result::error
};

/// Wire names ("stop_cause" of a finished walker in a PoolCheckpoint).
inline constexpr util::NameTable<StopCause, StopCause::kFailed>
    kStopCauseNames("none", "cancel", "chained", "preempted", "deadline",
                    "failed");

class StopToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never fires.
  StopToken() noexcept = default;

  /// Fires when `*cancel` becomes true (nullptr = no flag).
  explicit StopToken(const std::atomic<bool>* cancel) noexcept {
    flags_[0] = cancel;
  }

  /// This token with its deadline set to `deadline` (or tightened to it,
  /// when the existing deadline is later).  The serving layer uses this to
  /// apply a request's time budget on top of a caller token that may
  /// already carry one.
  [[nodiscard]] StopToken expiring_at(Clock::time_point deadline) const noexcept {
    StopToken combined = *this;
    if (!combined.has_deadline_ || deadline < combined.deadline_) {
      combined.deadline_ = deadline;
      combined.has_deadline_ = true;
    }
    return combined;
  }

  /// This token plus one chained cancel flag (the parallel runtime chains
  /// its internal completion flag onto the caller's external token, and the
  /// serving layer chains its watchdog flag before handing the token down).
  /// Chained flags occupy the secondary slots — polls attribute them as
  /// StopCause::kChained, distinct from the primary kCancel.  Chains stack
  /// (two secondary slots, so a watchdog chain survives the pool's
  /// first-finisher chain); a third chain overwrites the last slot.
  [[nodiscard]] StopToken also_cancelled_by(
      const std::atomic<bool>* flag) const noexcept {
    StopToken combined = *this;
    combined.flags_[combined.flags_[1] == nullptr ? 1 : 2] = flag;
    return combined;
  }

  /// This token plus a cooperative preemption flag.  A raised flag is a
  /// *request to pause*, not a cancel: the engine drains to its next safe
  /// point, captures a checkpoint when asked for one, and stops with
  /// StopCause::kPreempted.  Cancel flags outrank it; the deadline does
  /// not (a preempted walk should surrender its checkpoint even when its
  /// deadline fires on the same poll).  One slot — a second call replaces
  /// the flag.
  [[nodiscard]] StopToken with_preempt(
      const std::atomic<bool>* flag) const noexcept {
    StopToken combined = *this;
    combined.preempt_ = flag;
    return combined;
  }

  /// Engine-rate poll: cancel flags every call, deadline every
  /// kDeadlinePollStride calls (the first call always checks).  The stride
  /// bounds how far past its deadline a walk can run: stride iterations.
  /// Returns the source that fired (kNone = keep walking); the primary
  /// cancel flag wins over the chained ones, which win over the preempt
  /// flag, which wins over the deadline.
  [[nodiscard]] StopCause poll() const noexcept {
    if (flags_[0] != nullptr && flags_[0]->load(std::memory_order_relaxed)) {
      return StopCause::kCancel;
    }
    if (flags_[1] != nullptr && flags_[1]->load(std::memory_order_relaxed)) {
      return StopCause::kChained;
    }
    if (flags_[2] != nullptr && flags_[2]->load(std::memory_order_relaxed)) {
      return StopCause::kChained;
    }
    if (preempt_ != nullptr && preempt_->load(std::memory_order_relaxed)) {
      return StopCause::kPreempted;
    }
    if (!has_deadline_) return StopCause::kNone;
    if (polls_until_clock_ != 0) {
      --polls_until_clock_;
      return StopCause::kNone;
    }
    polls_until_clock_ = kDeadlinePollStride - 1;
    return Clock::now() >= deadline_ ? StopCause::kDeadline
                                     : StopCause::kNone;
  }

  static constexpr std::uint32_t kDeadlinePollStride = 64;

 private:
  const std::atomic<bool>* flags_[3] = {nullptr, nullptr, nullptr};
  const std::atomic<bool>* preempt_ = nullptr;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  /// Per-copy clock-read throttle; mutable so polling stays const.  Tokens
  /// are copied per walker, so this never races.
  mutable std::uint32_t polls_until_clock_ = 0;
};

}  // namespace cspls::core
