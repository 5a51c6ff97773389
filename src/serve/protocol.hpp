// Wire protocol of the serving tier: JSON-lines framing over any byte
// stream (stdio pipes, HTTP/1.1 bodies), speaking the byte-stable
// SolveRequest/SolveReport schema of api/solve.hpp.
//
// Client -> server, one JSON object per line:
//
//   {"op":"solve","request":{...SolveRequest...},
//    "priority":"high"|"normal"|"low","stream":true,
//    "sample_period":500,"tag":"client-tag"}
//   {"op":"stats"}
//   {"op":"cancel","id":7}
//
// Server -> client, one JSON object per line (the event grammar):
//
//   {"event":"accepted","id":7,"tag":"...","priority":"high"}
//   {"event":"sample","id":7,"walker":2,"iteration":4000,"best_cost":12}
//   {"event":"preempted","id":7}       (running job suspended, will resume)
//   {"event":"report","id":7,"tag":"...","status":"done",
//    "report":{...SolveReport...}}            (+ "error" when status=failed)
//   {"event":"cancel","id":7,"ok":true}
//   {"event":"stats","scheduler":{...},"service":{...}}
//   {"event":"error","code":"bad_json","message":"...","tag":"..."}
//                                      (tag: a rejected solve line's own)
//
// Per job the stream is: one `accepted`, zero or more `sample` /
// `preempted` events — samples carry strictly decreasing best_cost (the
// anytime payload — a deadline-bound client can act on the latest sample),
// a `preempted` marks a running job suspended to a checkpoint and requeued
// (it resumes where it left off) — then exactly one `report`.
//
// The envelope parser is strict, reading through the same util::JsonReader
// as SolveRequest::from_json: a malformed line, an unknown or repeated
// member, a wrong type or an oversized line each raise a ProtocolError
// carrying a stable machine-readable code — the transport encodes it as an
// `error` event and keeps serving.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "api/service.hpp"
#include "util/json.hpp"

namespace cspls::serve {

/// Admission lanes, strongest first: the serving engine's own.
using api::kNumLanes;
using api::name_of;
using api::Priority;

// Stable error codes of the `error` event.
inline constexpr std::string_view kErrOversized = "oversized";
inline constexpr std::string_view kErrBadJson = "bad_json";
inline constexpr std::string_view kErrBadEnvelope = "bad_envelope";
inline constexpr std::string_view kErrUnknownOp = "unknown_op";
inline constexpr std::string_view kErrBadRequest = "bad_request";
inline constexpr std::string_view kErrUnknownJob = "unknown_job";
inline constexpr std::string_view kErrShutdown = "shutdown";
/// Admission control: the job's priority lane is at its configured depth
/// bound.  The request was rejected *before* `accepted` — resubmit later.
/// The HTTP transport maps this code to status 429.
inline constexpr std::string_view kErrOverloaded = "overloaded";

/// A wire-boundary failure: `code()` is one of the kErr* constants above,
/// what() the human diagnostic, `tag()` the rejected solve envelope's tag
/// (empty when it had none, or none that could be read).  Raised by
/// parse_command, caught by the transport, never propagated past the
/// session loop.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string_view code, const std::string& message,
                std::string tag = {})
      : std::runtime_error(message), code_(code), tag_(std::move(tag)) {}

  [[nodiscard]] std::string_view code() const noexcept { return code_; }
  [[nodiscard]] const std::string& tag() const noexcept { return tag_; }

 private:
  std::string_view code_;  ///< always one of the static kErr* constants
  std::string tag_;
};

struct SolveCommand {
  api::SolveRequest request;
  Priority priority = Priority::kNormal;
  bool stream = false;            ///< push `sample` events while running
  std::uint64_t sample_period = 0;  ///< 0 = kDefaultSamplePeriod
  std::string tag;                ///< echoed verbatim in accepted/report
};

struct StatsCommand {};

struct CancelCommand {
  std::uint64_t id = 0;
};

using Command = std::variant<SolveCommand, StatsCommand, CancelCommand>;

/// Parse one client line.  Throws ProtocolError on any malformed input:
/// oversized (> max_line_bytes), unparsable JSON, a non-object envelope,
/// unknown, repeated, missing or mistyped envelope members, an unknown op,
/// or a `request` that SolveRequest::from_json rejects.  A solve envelope's `tag` is read
/// first, so the error of every later member carries it.
[[nodiscard]] Command parse_command(std::string_view line,
                                    std::size_t max_line_bytes);

// --- Event encoders ----------------------------------------------------
// Each returns one complete JSON line (no trailing newline).  Member order
// is fixed, so encodings are deterministic.

[[nodiscard]] std::string encode_accepted(std::uint64_t id,
                                          std::string_view tag,
                                          Priority priority);
[[nodiscard]] std::string encode_sample(std::uint64_t id, std::size_t walker,
                                        std::uint64_t iteration,
                                        csp::Cost best_cost);
/// Mid-stream notice that a *running* job was suspended to a checkpoint to
/// make room for stronger work and requeued at the front of its lane; the
/// job is still live and will resume (samples continue, report still comes
/// exactly once).  Emitted only for streaming jobs.
[[nodiscard]] std::string encode_preempted(std::uint64_t id);
[[nodiscard]] std::string encode_report(std::uint64_t id, std::string_view tag,
                                        std::string_view status,
                                        const api::SolveReport& report,
                                        std::string_view error);
[[nodiscard]] std::string encode_cancel_ack(std::uint64_t id, bool ok);
[[nodiscard]] std::string encode_stats(util::Json scheduler,
                                       util::Json service);
[[nodiscard]] std::string encode_error(std::string_view code,
                                       std::string_view message,
                                       std::string_view tag = {});

}  // namespace cspls::serve
