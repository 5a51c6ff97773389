#include "serve/session.hpp"

#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace cspls::serve {

Session::Session(Scheduler& scheduler,
                 std::function<void(std::string_view)> write_line,
                 Options options)
    : scheduler_(scheduler),
      write_line_(std::move(write_line)),
      options_(options) {}

void Session::emit(std::string_view line) {
  std::lock_guard lock(write_m_);
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  write_line_(framed);
}

void Session::handle_line(std::string_view line) {
  // Tolerate CRLF transports and blank keep-alive lines.
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.remove_suffix(1);
  }
  if (line.find_first_not_of(" \t") == std::string_view::npos) return;

  Command command;
  try {
    command = parse_command(line, options_.max_line_bytes);
  } catch (const ProtocolError& error) {
    emit(encode_error(error.code(), error.what(), error.tag()));
    return;
  }
  handle_command(std::move(command));
}

void Session::handle_command(Command command) {
  if (auto* solve = std::get_if<SolveCommand>(&command)) {
    dispatch_solve(std::move(*solve));
  } else if (std::get_if<StatsCommand>(&command) != nullptr) {
    emit(encode_stats(scheduler_.stats().to_json(),
                      scheduler_.service_stats().to_json()));
  } else {
    const auto& cancel = std::get<CancelCommand>(command);
    switch (scheduler_.cancel(cancel.id)) {
      case Scheduler::CancelResult::kCancelled:
        emit(encode_cancel_ack(cancel.id, true));
        break;
      case Scheduler::CancelResult::kAlreadyTerminal:
        emit(encode_cancel_ack(cancel.id, false));
        break;
      case Scheduler::CancelResult::kUnknown:
        emit(encode_error(kErrUnknownJob,
                          "no job with id " + std::to_string(cancel.id)));
        break;
    }
  }
}

void Session::dispatch_solve(SolveCommand command) {
  // The command is moved into the scheduler; keep what the events echo.
  const std::string tag = command.tag;
  const Priority priority = command.priority;
  const bool stream = command.stream;

  JobEvents events;
  events.on_accepted = [this, tag, priority](std::uint64_t id) {
    {
      std::lock_guard lock(pending_m_);
      pending_jobs_.insert(id);
    }
    emit(encode_accepted(id, tag, priority));
  };
  if (stream) {
    events.on_sample = [this](std::uint64_t id, std::size_t walker,
                              std::uint64_t iteration, csp::Cost cost) {
      emit(encode_sample(id, walker, iteration, cost));
    };
    events.on_preempted = [this](std::uint64_t id) {
      emit(encode_preempted(id));
    };
  }
  events.on_report = [this, tag](std::uint64_t id, std::string_view status,
                                 const api::SolveReport& report,
                                 std::string_view error) {
    emit(encode_report(id, tag, status, report, error));
    // Notify under the lock: once a drain()ing thread can observe the set
    // empty, this callback has finished touching the condition variable,
    // so the Session may be destroyed the moment drain() returns.
    std::lock_guard lock(pending_m_);
    pending_jobs_.erase(id);
    pending_cv_.notify_all();
  };

  try {
    (void)scheduler_.submit(std::move(command), std::move(events));
  } catch (const ProtocolError& error) {
    // Admission control (`overloaded`): rejected before on_accepted fired.
    emit(encode_error(error.code(), error.what(), tag));
  } catch (const std::invalid_argument& error) {
    // Rejected before on_accepted fired: nothing is pending.
    emit(encode_error(kErrBadRequest, error.what(), tag));
  } catch (const std::exception& error) {
    emit(encode_error(kErrShutdown, error.what(), tag));
  }
}

void Session::drain() {
  std::unique_lock lock(pending_m_);
  pending_cv_.wait(lock, [this] { return pending_jobs_.empty(); });
}

void Session::cancel_all() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard lock(pending_m_);
    ids.assign(pending_jobs_.begin(), pending_jobs_.end());
  }
  for (const std::uint64_t id : ids) (void)scheduler_.cancel(id);
}

}  // namespace cspls::serve
