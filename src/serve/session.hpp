// One client's view of the serving tier: a Session binds a Scheduler to a
// line-oriented byte sink.  The transport (stdio loop, HTTP connection)
// feeds complete request lines into handle_line() (or commands it parsed
// itself into handle_command()); the session parses, dispatches, and pushes
// event lines — `accepted`, `sample`, `report`,
// `cancel`, `stats`, `error` — through the sink, each terminated with
// '\n' and serialized under a write lock (event lines from concurrent
// walker threads never interleave).
//
// Wire-boundary containment: every malformed line turns into exactly one
// `error` event (stable code, human message) and the session keeps
// serving — a parse failure never tears down the connection, let alone
// the scheduler behind it.
//
// Lifetime: jobs submitted here hold callbacks into the session, so the
// transport must drain() (block until every submitted job has reported)
// before destroying it; cancel_all() first makes that prompt when the
// client disconnected mid-stream.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <unordered_set>

#include "serve/scheduler.hpp"

namespace cspls::serve {

class Session {
 public:
  struct Options {
    std::size_t max_line_bytes = 1 << 20;  ///< request-line size limit
  };

  /// `write_line` receives complete event lines (trailing '\n' included),
  /// already serialized; it may block (backpressure) but must not call
  /// back into the session.  It outlives the session.
  Session(Scheduler& scheduler,
          std::function<void(std::string_view)> write_line)
      : Session(scheduler, std::move(write_line), Options{}) {}
  Session(Scheduler& scheduler,
          std::function<void(std::string_view)> write_line, Options options);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Dispatch one request line (no trailing newline; blank lines are
  /// ignored).  Never throws on client input — malformed lines emit an
  /// `error` event instead.
  void handle_line(std::string_view line);

  /// Dispatch an already-parsed command — what handle_line() does after
  /// parsing.  The HTTP front door parses each body once for its 400/429
  /// pre-checks and hands the result here.
  void handle_command(Command command);

  /// Block until every job submitted through this session has reported.
  void drain();

  /// Cancel this session's outstanding jobs (client went away); their
  /// `report` events still fire (status "cancelled"), so drain() returns.
  void cancel_all();

 private:
  void dispatch_solve(SolveCommand command);
  void emit(std::string_view line);  ///< serialize, append '\n', write

  Scheduler& scheduler_;
  std::function<void(std::string_view)> write_line_;
  Options options_;

  std::mutex write_m_;
  std::mutex pending_m_;
  std::condition_variable pending_cv_;
  std::unordered_set<std::uint64_t> pending_jobs_;
};

}  // namespace cspls::serve
