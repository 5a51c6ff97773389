#include "serve/protocol.hpp"

#include <utility>

namespace cspls::serve {

namespace {

[[noreturn]] void bad_envelope(const std::string& message) {
  throw ProtocolError(kErrBadEnvelope, message);
}

/// One read of the envelope through the strict reader: a wrong type, an
/// out-of-range number, an unknown, repeated or missing member is a
/// bad_envelope error naming "<op>.<member>", never an escaping exception.
template <typename Read>
decltype(auto) read_envelope(Read read) {
  try {
    return read();
  } catch (const std::invalid_argument& error) {
    bad_envelope(error.what());
  }
}

SolveCommand parse_solve(const util::Json& envelope) {
  SolveCommand command;
  const util::Json& request = read_envelope([&]() -> const util::Json& {
    const util::JsonReader in(
        envelope, util::JsonPath{"solve"},
        {"op", "request", "priority", "stream", "sample_period", "tag"});
    command.priority =
        in.get("priority", api::kPriorityNames, Priority::kNormal);
    command.stream = in.get("stream", false);
    command.sample_period = in.get<std::uint64_t>("sample_period", 0);
    command.tag = in.get<std::string>("tag", {});
    return in.at("request");
  });
  try {
    command.request = api::SolveRequest::from_json(request);
  } catch (const std::exception& error) {
    throw ProtocolError(kErrBadRequest, error.what());
  }
  return command;
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
    // The tag first: every later rejection of this line echoes it, so a
    // client pipelining tagged solves can match the error to its line.
    std::string tag;
    if (const util::Json* member = parsed->find("tag"); member != nullptr) {
      tag = read_envelope([&] {
        return util::read_json<std::string>(*member, {"solve", "tag"});
      });
    }
    try {
      return parse_solve(*parsed);
    } catch (const ProtocolError& error) {
      throw ProtocolError(error.code(), error.what(), std::move(tag));
    }
  }
  if (name == "stats") {
    read_envelope([&] { (void)util::JsonReader(*parsed, {"stats"}, {"op"}); });
    return StatsCommand{};
  }
  if (name == "cancel") {
    return CancelCommand{read_envelope([&] {
      return util::JsonReader(*parsed, {"cancel"}, {"op", "id"})
          .get<std::uint64_t>("id");
    })};
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
