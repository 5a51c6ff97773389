// serve wire protocol: strict envelope parsing (stable error codes for
// every malformed shape) and deterministic event encoding.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <variant>

namespace cspls::serve {
namespace {

std::string_view code_of(std::string_view line, std::size_t limit = 1 << 20) {
  try {
    (void)parse_command(line, limit);
  } catch (const ProtocolError& error) {
    return error.code();
  }
  return {};
}

/// The rejection of `line`: its code, message and echoed tag.
struct Rejection {
  std::string_view code;
  std::string message;
  std::string tag;
};

Rejection rejection_of(std::string_view line) {
  try {
    (void)parse_command(line, 1 << 20);
  } catch (const ProtocolError& error) {
    return {error.code(), error.what(), error.tag()};
  }
  ADD_FAILURE() << "accepted " << line;
  return {};
}

TEST(ServeProtocol, ParsesAFullSolveEnvelope) {
  const Command command = parse_command(
      R"({"op":"solve","request":{"problem":"costas:8","walkers":2,"seed":7},)"
      R"("priority":"high","stream":true,"sample_period":128,"tag":"t"})",
      1 << 20);
  const auto& solve = std::get<SolveCommand>(command);
  EXPECT_EQ(solve.request.problem, "costas:8");
  EXPECT_EQ(solve.request.walkers, 2u);
  EXPECT_EQ(solve.request.seed, 7u);
  EXPECT_EQ(solve.priority, Priority::kHigh);
  EXPECT_TRUE(solve.stream);
  EXPECT_EQ(solve.sample_period, 128u);
  EXPECT_EQ(solve.tag, "t");
}

TEST(ServeProtocol, DefaultsAreNormalPriorityNoStreaming) {
  const Command command = parse_command(
      R"({"op":"solve","request":{"problem":"queens:20"}})", 1 << 20);
  const auto& solve = std::get<SolveCommand>(command);
  EXPECT_EQ(solve.priority, Priority::kNormal);
  EXPECT_FALSE(solve.stream);
  EXPECT_EQ(solve.sample_period, 0u);
  EXPECT_TRUE(solve.tag.empty());
}

TEST(ServeProtocol, ParsesStatsAndCancel) {
  EXPECT_TRUE(std::holds_alternative<StatsCommand>(
      parse_command(R"({"op":"stats"})", 1 << 20)));
  const Command command = parse_command(R"({"op":"cancel","id":42})", 1 << 20);
  EXPECT_EQ(std::get<CancelCommand>(command).id, 42u);
}

TEST(ServeProtocol, EveryMalformedShapeHasAStableCode) {
  EXPECT_EQ(code_of("{not json"), kErrBadJson);
  EXPECT_EQ(code_of(R"([1,2,3])"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"request":{}})"), kErrBadEnvelope);  // missing op
  EXPECT_EQ(code_of(R"({"op":7})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"frobnicate"})"), kErrUnknownOp);
  // Unknown member on every op: strict, mirroring SolveRequest::from_json.
  EXPECT_EQ(code_of(
                R"({"op":"solve","request":{"problem":"costas:8"},"nope":1})"),
            kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"stats","verbose":true})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"cancel","id":1,"hard":true})"),
            kErrBadEnvelope);
  // Mistyped envelope members.
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:8"},)"
                    R"("priority":"urgent"})"),
            kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:8"},)"
                    R"("stream":"yes"})"),
            kErrBadEnvelope);
  // Numbers the member's type cannot hold (they used to escape as a bare
  // std::runtime_error, which ended the server).
  EXPECT_EQ(code_of(R"({"op":"cancel","id":-1})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"cancel","id":1.5})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:8"},)"
                    R"("sample_period":18446744073709551616})"),
            kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"cancel"})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"solve"})"), kErrBadEnvelope);  // no request
  // A request body SolveRequest::from_json rejects surfaces as bad_request.
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:8",)"
                    R"("walkerz":3}})"),
            kErrBadRequest);
  // A repeated member is rejected like an unknown one: never solved with
  // whichever value came last.
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:8"},)"
                    R"("stream":true,"stream":false})"),
            kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"solve","request":{"problem":"costas:7",)"
                    R"("problem":"queens:8"}})"),
            kErrBadRequest);
  EXPECT_EQ(code_of(R"({"op":"stats","op":"stats"})"), kErrBadEnvelope);
  EXPECT_EQ(code_of(R"({"op":"cancel","id":1,"id":2})"), kErrBadEnvelope);
  // The line-size limit.
  EXPECT_EQ(code_of(R"({"op":"stats"})", 5), kErrOversized);
}

TEST(ServeProtocol, OversizedWinsBeforeParsing) {
  const std::string huge =
      R"({"op":"solve","request":{"problem":")" + std::string(4096, 'x') +
      R"("}})";
  EXPECT_EQ(code_of(huge, 1024), kErrOversized);
}

TEST(ServeProtocol, EnvelopeErrorsNameTheMemberAndEchoTheTag) {
  const Rejection missing = rejection_of(R"({"op":"solve","tag":"t"})");
  EXPECT_EQ(missing.code, kErrBadEnvelope);
  EXPECT_EQ(missing.message, R"(solve: missing member "request")");
  EXPECT_EQ(missing.tag, "t");

  const Rejection priority = rejection_of(
      R"({"op":"solve","request":{"problem":"costas:8"},"tag":"t",)"
      R"("priority":"urgent"})");
  EXPECT_EQ(priority.code, kErrBadEnvelope);
  EXPECT_NE(priority.message.find(R"(solve.priority: unknown name "urgent")"),
            std::string::npos)
      << priority.message;
  EXPECT_EQ(priority.tag, "t");

  const Rejection repeated_tag = rejection_of(
      R"({"op":"solve","request":{"problem":"costas:8"},"tag":"a","tag":"b"})");
  EXPECT_EQ(repeated_tag.message, R"(solve: repeated member "tag")");
  EXPECT_EQ(repeated_tag.tag, "a");

  const Rejection problem = rejection_of(
      R"({"op":"solve","request":{"problem":"costas:7","problem":"queens:8"},)"
      R"("tag":"t"})");
  EXPECT_EQ(problem.code, kErrBadRequest);
  EXPECT_EQ(problem.message, R"(SolveRequest: repeated member "problem")");
  EXPECT_EQ(problem.tag, "t");

  EXPECT_EQ(rejection_of(R"({"op":"stats","verbose":true})").message,
            R"(stats: unknown member "verbose")");
  EXPECT_EQ(rejection_of(R"({"op":"cancel","id":1,"id":2})").message,
            R"(cancel: repeated member "id")");
  EXPECT_EQ(rejection_of(R"({"op":"cancel","id":-1})").message.rfind(
                "cancel.id: expected an integer", 0),
            0u);
}

TEST(ServeProtocol, AWideEnvelopeIsRejectedInLinearTime) {
  // 90,000 distinct members in under 1 MiB.  Storing each parsed member
  // by insert-or-replace scanned every earlier one, quadratic in the
  // member count (tens of seconds for this line); appending, then one
  // reader pass, keeps it linear.
  std::string line = R"({"op":"solve","request":{"problem":"costas:7"})";
  for (int i = 0; i < 90'000; ++i) {
    line += ",\"x" + std::to_string(i) + "\":0";
  }
  line += '}';
  ASSERT_LE(line.size(), std::size_t{1} << 20);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(code_of(line), kErrBadEnvelope);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST(ServeProtocol, EventEncodingsAreDeterministicSingleLines) {
  EXPECT_EQ(encode_accepted(7, "t", Priority::kHigh),
            R"({"event":"accepted","id":7,"tag":"t","priority":"high"})");
  EXPECT_EQ(
      encode_sample(7, 2, 4000, 12),
      R"({"event":"sample","id":7,"walker":2,"iteration":4000,"best_cost":12})");
  EXPECT_EQ(encode_cancel_ack(7, true), R"({"event":"cancel","id":7,"ok":true})");
  const std::string error = encode_error(kErrBadJson, "broken \"line\"");
  EXPECT_EQ(error.find('\n'), std::string::npos);
  const auto parsed = util::Json::parse(error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("code").as_string(), "bad_json");

  api::SolveReport report;
  report.problem = "costas:8";
  const std::string line = encode_report(7, "t", "done", report, "");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto event = util::Json::parse(line);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->at("event").as_string(), "report");
  EXPECT_EQ(event->at("status").as_string(), "done");
  EXPECT_FALSE(event->contains("error"));
  // The embedded report is the byte-stable SolveReport encoding itself.
  EXPECT_EQ(event->at("report").dump(0), report.to_json().dump(0));
  // A failed report carries the error member.
  const auto failed =
      util::Json::parse(encode_report(7, "t", "failed", report, "boom"));
  EXPECT_EQ(failed->at("error").as_string(), "boom");
}

}  // namespace
}  // namespace cspls::serve
