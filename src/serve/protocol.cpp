#include "serve/protocol.hpp"

#include <utility>

namespace cspls::serve {

namespace {

[[noreturn]] void bad_envelope(const std::string& message) {
  throw ProtocolError(kErrBadEnvelope, message);
}

SolveCommand parse_solve(const util::Json& envelope) {
  SolveCommand command;
  bool saw_request = false;
  for (const auto& [key, value] : envelope.members()) {
    if (key == "op") {
      continue;
    } else if (key == "request") {
      try {
        command.request = api::SolveRequest::from_json(value);
      } catch (const std::exception& error) {
        throw ProtocolError(kErrBadRequest, error.what());
      }
      saw_request = true;
    } else if (key == "priority") {
      if (!value.is_string()) {
        bad_envelope("solve: \"priority\" must be a string");
      }
      const std::optional<Priority> priority =
          priority_from_name(value.as_string());
      if (!priority) {
        bad_envelope("solve: unknown priority \"" + value.as_string() +
                     "\" (valid: high | normal | low)");
      }
      command.priority = *priority;
    } else if (key == "stream") {
      if (!value.is_bool()) {
        bad_envelope("solve: \"stream\" must be a boolean");
      }
      command.stream = value.as_bool();
    } else if (key == "sample_period") {
      if (!value.is_number()) {
        bad_envelope("solve: \"sample_period\" must be a number");
      }
      command.sample_period = value.as_uint64();
    } else if (key == "tag") {
      if (!value.is_string()) {
        bad_envelope("solve: \"tag\" must be a string");
      }
      command.tag = value.as_string();
    } else {
      bad_envelope("solve: unknown member \"" + key + "\"");
    }
  }
  if (!saw_request) {
    bad_envelope("solve: missing \"request\"");
  }
  return command;
}

CancelCommand parse_cancel(const util::Json& envelope) {
  CancelCommand command;
  bool saw_id = false;
  for (const auto& [key, value] : envelope.members()) {
    if (key == "op") {
      continue;
    } else if (key == "id") {
      if (!value.is_number()) {
        bad_envelope("cancel: \"id\" must be a number");
      }
      command.id = value.as_uint64();
      saw_id = true;
    } else {
      bad_envelope("cancel: unknown member \"" + key + "\"");
    }
  }
  if (!saw_id) {
    bad_envelope("cancel: missing \"id\"");
  }
  return command;
}

void reject_extra_members(const util::Json& envelope, const char* op) {
  for (const auto& [key, value] : envelope.members()) {
    (void)value;
    if (key != "op") {
      bad_envelope(std::string(op) + ": unknown member \"" + key + "\"");
    }
  }
}

}  // namespace

Command parse_command(std::string_view line, std::size_t max_line_bytes) {
  if (max_line_bytes != 0 && line.size() > max_line_bytes) {
    throw ProtocolError(
        kErrOversized, "request line of " + std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(max_line_bytes) + "-byte limit");
  }
  std::string parse_error;
  const std::optional<util::Json> parsed = util::Json::parse(line, &parse_error);
  if (!parsed) {
    throw ProtocolError(kErrBadJson, parse_error);
  }
  if (!parsed->is_object()) {
    bad_envelope("request must be a JSON object");
  }
  const util::Json* op = parsed->find("op");
  if (op == nullptr) {
    bad_envelope("missing \"op\"");
  }
  if (!op->is_string()) {
    bad_envelope("\"op\" must be a string");
  }
  const std::string& name = op->as_string();
  if (name == "solve") {
    return parse_solve(*parsed);
  }
  if (name == "stats") {
    reject_extra_members(*parsed, "stats");
    return StatsCommand{};
  }
  if (name == "cancel") {
    return parse_cancel(*parsed);
  }
  throw ProtocolError(kErrUnknownOp, "unknown op \"" + name +
                                         "\" (valid: solve | stats | cancel)");
}

std::string encode_accepted(std::uint64_t id, std::string_view tag,
                            Priority priority) {
  util::Json event = util::Json::object();
  event.set("event", "accepted")
      .set("id", id)
      .set("tag", tag)
      .set("priority", name_of(priority));
  return event.dump(0);
}

std::string encode_sample(std::uint64_t id, std::size_t walker,
                          std::uint64_t iteration, csp::Cost best_cost) {
  util::Json event = util::Json::object();
  event.set("event", "sample")
      .set("id", id)
      .set("walker", static_cast<std::uint64_t>(walker))
      .set("iteration", iteration)
      .set("best_cost", static_cast<std::int64_t>(best_cost));
  return event.dump(0);
}

std::string encode_preempted(std::uint64_t id) {
  util::Json event = util::Json::object();
  event.set("event", "preempted").set("id", id);
  return event.dump(0);
}

std::string encode_report(std::uint64_t id, std::string_view tag,
                          std::string_view status,
                          const api::SolveReport& report,
                          std::string_view error) {
  util::Json event = util::Json::object();
  event.set("event", "report").set("id", id).set("tag", tag).set("status",
                                                                 status);
  event.set("report", report.to_json());
  if (!error.empty()) {
    event.set("error", error);
  }
  return event.dump(0);
}

std::string encode_cancel_ack(std::uint64_t id, bool ok) {
  util::Json event = util::Json::object();
  event.set("event", "cancel").set("id", id).set("ok", ok);
  return event.dump(0);
}

std::string encode_stats(util::Json scheduler, util::Json service) {
  util::Json event = util::Json::object();
  event.set("event", "stats")
      .set("scheduler", std::move(scheduler))
      .set("service", std::move(service));
  return event.dump(0);
}

std::string encode_error(std::string_view code, std::string_view message,
                         std::string_view tag) {
  util::Json event = util::Json::object();
  event.set("event", "error").set("code", code).set("message", message);
  if (!tag.empty()) {
    event.set("tag", tag);
  }
  return event.dump(0);
}

}  // namespace cspls::serve
