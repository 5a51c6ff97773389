// End-to-end through the stdio transport: the streaming event grammar
// (accepted -> nonincreasing samples -> report), fixed-seed report
// byte-identity with the in-process api::Solver path, wire-boundary error
// containment, and the service_dispatch fault leg.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "serve/stdio_server.hpp"
#include "util/fault.hpp"

namespace cspls::serve {
namespace {

std::vector<util::Json> serve_lines(const std::vector<std::string>& lines,
                                    SchedulerOptions options = {},
                                    Session::Options session = {}) {
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  Scheduler scheduler(options);
  StdioServer(scheduler, in, out, session).run();
  scheduler.shutdown();

  std::vector<util::Json> events;
  std::istringstream replies(out.str());
  std::string reply;
  while (std::getline(replies, reply)) {
    auto event = util::Json::parse(reply);
    EXPECT_TRUE(event.has_value()) << "unparsable event line: " << reply;
    if (event) events.push_back(std::move(*event));
  }
  return events;
}

std::string solve_line(const api::SolveRequest& request, bool stream,
                       std::uint64_t sample_period,
                       std::string_view tag = "t") {
  util::Json envelope = util::Json::object();
  envelope.set("op", "solve").set("request", request.to_json());
  if (stream) {
    envelope.set("stream", true).set("sample_period", sample_period);
  }
  envelope.set("tag", tag);
  return envelope.dump(0);
}

api::SolveRequest small_request(std::uint64_t seed) {
  api::SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 1;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kSequential;
  return request;
}

void zero_timings(api::SolveReport& report) {
  report.wall_seconds = 0.0;
  report.time_to_solution_seconds = 0.0;
  for (api::WalkerReport& walker : report.walkers) walker.seconds = 0.0;
}

TEST(ServeSession, StreamsAcceptedThenNonincreasingSamplesThenReport) {
  const auto events =
      serve_lines({solve_line(small_request(0x5eed), true, 1)});
  ASSERT_GE(events.size(), 3u) << "expected accepted + sample(s) + report";

  EXPECT_EQ(events.front().at("event").as_string(), "accepted");
  EXPECT_EQ(events.front().at("tag").as_string(), "t");
  const std::uint64_t id = events.front().at("id").as_uint64();

  std::size_t samples = 0;
  csp::Cost last_cost = csp::kInfiniteCost;
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    const util::Json& event = events[i];
    ASSERT_EQ(event.at("event").as_string(), "sample");
    EXPECT_EQ(event.at("id").as_uint64(), id);
    const csp::Cost cost = event.at("best_cost").as_int64();
    EXPECT_LT(cost, last_cost) << "sample costs must strictly decrease";
    last_cost = cost;
    ++samples;
  }
  EXPECT_GE(samples, 1u);

  const util::Json& last = events.back();
  EXPECT_EQ(last.at("event").as_string(), "report");
  EXPECT_EQ(last.at("id").as_uint64(), id);
  EXPECT_EQ(last.at("status").as_string(), "done");
  // The final report's cost closes the nonincreasing chain.
  EXPECT_LE(last.at("report").at("cost").as_int64(), last_cost);
}

TEST(ServeSession, FixedSeedReportIsByteIdenticalToInProcessSolver) {
  // A sequential and a threaded pool through the default scheduler: the
  // transport must add naming and framing, never behaviour.
  // kBestAfterBudget so per-walker trajectories are deterministic even on
  // real threads (kFirstFinisher's winner would race wall-clock).
  api::SolveRequest threaded = small_request(99);
  threaded.problem = "costas:8";
  threaded.walkers = 2;
  threaded.scheduling = parallel::Scheduling::kThreads;
  threaded.termination = parallel::Termination::kBestAfterBudget;

  for (const api::SolveRequest& request :
       {small_request(123), threaded}) {
    const auto events = serve_lines({solve_line(request, false, 0)});
    ASSERT_EQ(events.size(), 2u);
    ASSERT_EQ(events.back().at("event").as_string(), "report");

    api::SolveReport wire =
        api::SolveReport::from_json(events.back().at("report"));
    api::SolveReport direct = api::Solver::solve(request);
    zero_timings(wire);
    zero_timings(direct);
    EXPECT_EQ(wire.to_json().dump(0), direct.to_json().dump(0));
  }
}

TEST(ServeSession, WireErrorsAreContainedAndTheServerKeepsServing) {
  Session::Options session;
  session.max_line_bytes = 512;
  const std::string oversized =
      R"({"op":"solve","request":{"problem":")" + std::string(600, 'x') +
      R"("}})";
  // Many times the limit: read through to its newline without being held,
  // and answered with its full length.
  const std::string huge =
      R"({"op":"stats","pad":")" + std::string(200 * 512, 'y') + R"("})";
  const auto events = serve_lines(
      {
          "{broken json",
          R"({"op":"solve","request":{"problem":"costas:7"},"nope":1})",
          oversized,
          huge,
          R"({"op":"solve","request":{"problem":"costas:7","walkers":1,)"
          R"("scheduling":"sequential","seed":5},"tag":"after"})",
      },
      SchedulerOptions{}, session);

  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].at("event").as_string(), "error");
  EXPECT_EQ(events[0].at("code").as_string(), "bad_json");
  EXPECT_EQ(events[1].at("event").as_string(), "error");
  EXPECT_EQ(events[1].at("code").as_string(), "bad_envelope");
  EXPECT_EQ(events[2].at("event").as_string(), "error");
  EXPECT_EQ(events[2].at("code").as_string(), "oversized");
  EXPECT_EQ(events[3].at("event").as_string(), "error");
  EXPECT_EQ(events[3].at("code").as_string(), "oversized");
  EXPECT_EQ(events[3].at("message").as_string(),
            "request line of " + std::to_string(huge.size()) +
                " bytes exceeds the 512-byte limit");
  // The session survived all four: the valid solve still runs to a report.
  EXPECT_EQ(events[4].at("event").as_string(), "accepted");
  EXPECT_EQ(events[5].at("event").as_string(), "report");
  EXPECT_EQ(events[5].at("status").as_string(), "done");
  EXPECT_EQ(events[5].at("tag").as_string(), "after");
}

// A warm start outside the instance's values used to crash the server
// (an out-of-bounds read in the costas kernel) right after `accepted`.  It
// now fails its own job, naming the member, and the next solve is served.
TEST(ServeSession, AHostileWarmStartFailsItsJobAndTheServerServesOn) {
  const auto events = serve_lines(
      {R"({"op":"solve","request":{"problem":"costas:7","walkers":1,)"
       R"("scheduling":"sequential","seed":7,)"
       R"("warm_start":[1,2,3,4,5,6,70]},"tag":"hostile"})",
       solve_line(small_request(7), false, 0, "next")});
  std::map<std::string, util::Json> reports;  // by tag: the jobs run at once
  for (const util::Json& event : events) {
    if (event.at("event").as_string() == "report") {
      reports[event.at("tag").as_string()] = event;
    }
  }
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports["hostile"].at("status").as_string(), "failed");
  EXPECT_NE(reports["hostile"].at("error").as_string().find("warm_start"),
            std::string::npos);
  EXPECT_EQ(reports["next"].at("status").as_string(), "done");
}

TEST(ServeSession, BadRequestBodyAndUnknownJobCancelAreStructuredErrors) {
  const auto events = serve_lines({
      R"({"op":"solve","request":{"problem":"no-such-problem:5"},"tag":"x"})",
      // A request that fails to decode, and an envelope with an unknown
      // member: each rejection echoes the line's tag.
      R"({"op":"solve","request":{"problem":"costas:7","trace":true},)"
      R"("tag":"t"})",
      R"({"op":"solve","request":{"problem":"costas:7"},"tag":"u",)"
      R"("surprise":1})",
      // A tag that is no string is itself the malformed member.
      R"({"op":"solve","request":{"problem":"costas:7"},"tag":5})",
      R"({"op":"cancel","id":999})",
      R"({"op":"stats"})",
  });
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].at("event").as_string(), "error");
  EXPECT_EQ(events[0].at("code").as_string(), "bad_request");
  EXPECT_EQ(events[0].at("tag").as_string(), "x");
  EXPECT_EQ(events[1].at("event").as_string(), "error");
  EXPECT_EQ(events[1].at("code").as_string(), "bad_request");
  EXPECT_NE(events[1].at("message").as_string().find("trace"),
            std::string::npos);
  EXPECT_EQ(events[1].at("tag").as_string(), "t");
  EXPECT_EQ(events[2].at("event").as_string(), "error");
  EXPECT_EQ(events[2].at("code").as_string(), "bad_envelope");
  EXPECT_EQ(events[2].at("tag").as_string(), "u");
  EXPECT_EQ(events[3].at("event").as_string(), "error");
  EXPECT_EQ(events[3].at("code").as_string(), "bad_envelope");
  EXPECT_FALSE(events[3].contains("tag"));
  EXPECT_EQ(events[4].at("event").as_string(), "error");
  EXPECT_EQ(events[4].at("code").as_string(), "unknown_job");
  EXPECT_EQ(events[5].at("event").as_string(), "stats");
  // Both stat panes carry their schema.
  EXPECT_TRUE(events[5].at("scheduler").contains("batches"));
  EXPECT_TRUE(events[5].at("scheduler").contains("preempted_queued"));
  EXPECT_TRUE(events[5].at("scheduler").contains("preempted_running"));
  EXPECT_TRUE(events[5].at("scheduler").contains("rejected_overload"));
  EXPECT_TRUE(events[5].at("service").contains("thread_budget"));
  EXPECT_TRUE(events[5].at("service").contains("retried"));
}

TEST(ServeSession, ServiceDispatchThrowFaultFailsTheJobNotTheServer) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault sites compiled out (CSPLS_FAULT_INJECTION=OFF)";
  }
  api::SolveRequest doomed = small_request(1);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kServiceDispatch;
  plan.kind = util::fault::Kind::kThrow;
  plan.at_count = 1;
  doomed.faults.push_back(plan);

  const auto events = serve_lines({
      solve_line(doomed, false, 0, "doomed"),
      solve_line(small_request(2), false, 0, "fine"),
  });
  // Both accepteds may precede both reports, and the reports race each
  // other: locate each job's report by tag instead of by position.
  ASSERT_EQ(events.size(), 4u);
  auto report_of = [&](std::string_view tag) -> const util::Json* {
    for (const util::Json& event : events) {
      if (event.at("event").as_string() == "report" &&
          event.at("tag").as_string() == tag) {
        return &event;
      }
    }
    return nullptr;
  };
  const util::Json* failed = report_of("doomed");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->at("status").as_string(), "failed");
  EXPECT_NE(failed->at("error").as_string().find("service_dispatch"),
            std::string::npos);
  // The crash was contained to its job: the next solve is untouched.
  const util::Json* fine = report_of("fine");
  ASSERT_NE(fine, nullptr);
  EXPECT_EQ(fine->at("status").as_string(), "done");
}

TEST(ServeSession, ServiceDispatchStallFaultOnlyDelaysTheJob) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "fault sites compiled out (CSPLS_FAULT_INJECTION=OFF)";
  }
  api::SolveRequest slow = small_request(3);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kServiceDispatch;
  plan.kind = util::fault::Kind::kStall;
  plan.stall_ms = 50;
  slow.faults.push_back(plan);

  const auto events = serve_lines({solve_line(slow, false, 0)});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().at("event").as_string(), "report");
  EXPECT_EQ(events.back().at("status").as_string(), "done");
}

}  // namespace
}  // namespace cspls::serve
