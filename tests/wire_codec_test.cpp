// One strict codec for every wire value.
//
// Golden bytes: every encoding below is a recorded wire document.  The
// codecs must reproduce each byte for byte and decode each back to an equal
// value.
// Strictness: every value decoder rejects an unknown member, a repeated
// member, a missing required member, a mistyped member and an out-of-range
// integer with std::invalid_argument naming the member.  Names: each wire enum has one
// name table, and every name function reads it.
#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "api/service.hpp"
#include "api/solve.hpp"
#include "core/checkpoint.hpp"
#include "parallel/checkpoint.hpp"
#include "parallel/policy_names.hpp"
#include "serve/protocol.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace cspls {
namespace {

// --- The values behind the golden bytes --------------------------------

core::Checkpoint golden_checkpoint() {
  return {.values = {3, 1, 4, 0, 2}, .cost = 7, .best = {0, 1, 2, 4, 3},
          .best_cost = 2, .tabu_until = {0, 12, 0, 40, 3},
          .marks_since_reset = 3,
          .rng_state = {0x0123456789abcdefULL, 42, ~0ULL, 7},
          .stats = {1234, 1000, 200, 34, 5, 1, 99999, 0.125},
          .iter_in_walk = 234, .restarts_done = 1};
}

parallel::PoolCheckpoint golden_pool_checkpoint() {
  using Stage = parallel::PoolCheckpoint::WalkerStage;
  const core::Result result{
      .cost = 1, .solution = {4, 3, 2, 1, 0},
      .stats = {5000, 4100, 600, 300, 30, 2, 123456, 0.5},
      .interrupted = true, .stop_cause = core::StopCause::kDeadline,
      .error = ""};
  return {.walkers = {{},  // kPending
                      {.stage = Stage::kRunning,
                       .checkpoint = golden_checkpoint(), .result = {}},
                      {.stage = Stage::kDone, .checkpoint = {},
                       .result = result, .injected_faults = 1}},
          .elite = {{.has_entry = true, .cost = 1, .values = {4, 3, 2, 1, 0},
                     .tick = 17, .publisher = 2, .publishes = 9,
                     .accepted = 4},
                    {.values = {}, .publisher = ~0ULL}},
          .comm_clock = 17, .comm_adoptions = 3};
}

util::fault::FaultPlan golden_fault_plan() {
  return {.site = util::fault::Site::kEliteAdopt, .walker = 1, .at_count = 3,
          .kind = util::fault::Kind::kStall, .stall_ms = 25};
}

api::SolveRequest golden_request() {
  return {.problem = "langford:5", .walkers = 3, .seed = ~0ULL,
          .scheduling = parallel::Scheduling::kSequential,
          .neighborhood = parallel::Neighborhood::kRing,
          .exchange = parallel::Exchange::kDecayElite,
          .comm_mode = parallel::CommMode::kAsync,
          .termination = parallel::Termination::kBestAfterBudget,
          .comm_period = 250, .comm_adopt_probability = 0.3, .comm_decay = 4,
          .max_threads = 2, .deadline_ms = 9000,
          .params = core::Params{-1, 5000, core::RestartSchedule::kLuby, 7, 4,
                                 1, 12, 0.25, 0.9, 0.05},
          .retry = {3, 20, 1.5, 0.1}, .watchdog_stall_ms = 750,
          .warm_start = std::nullopt,
          .faults = {golden_fault_plan(), util::fault::FaultPlan{}},
          .resume_from = golden_pool_checkpoint()};
}

api::SolveRequest golden_warm_request() {
  return {.problem = "costas:7", .walkers = 1, .params = std::nullopt,
          .retry = {}, .warm_start = std::vector<int>{1, 2, 3, 4, 5, 6, 7},
          .faults = {}, .resume_from = std::nullopt};
}

api::SolveReport golden_report() {
  return {.problem = "costas:7", .solved = true, .winner = 0, .cost = 0,
          .wall_seconds = 0.0125, .time_to_solution_seconds = 0.01,
          .total_iterations = 4321, .comm_publishes = 2, .elite_accepted = 1,
          .comm_adoptions = 1, .failed_walkers = 1, .attempts = 2,
          .degraded = true, .solution = {2, 4, 1, 7, 5, 3, 6},
          .walkers = {{.id = 0, .solved = true, .cost = 0, .iterations = 4321,
                       .swaps = 4000, .plateau_moves = 300,
                       .local_minima = 21, .resets = 2,
                       .cost_evaluations = 77777, .seconds = 0.01,
                       .error = ""},
                      {.id = 1, .interrupted = true, .failed = true,
                       .error = "injected fault: throw at walker_iteration "
                                "count 3 (walker 1)"}}};
}

// --- The golden bytes ---------------------------------------------------

constexpr std::string_view kRequest =
    R"json({"problem":"langford:5","walkers":3,"seed":18446744073709551615,"scheduling":"sequential","neighborhood":"ring","exchange":"decay-elite","comm_mode":"async","termination":"best-after-budget","comm_period":250,"comm_adopt_probability":0.3,"comm_decay":4,"max_threads":2,"deadline_ms":9000,"params":{"target_cost":-1,"restart_limit":5000,"restart_schedule":"luby","max_restarts":7,"freeze_loc_min":4,"freeze_swap":1,"reset_limit":12,"reset_fraction":0.25,"prob_accept_plateau":0.9,"prob_accept_local_min":0.05},"retry":{"max_attempts":3,"base_backoff_ms":20,"multiplier":1.5,"jitter":0.1},"watchdog_stall_ms":750,"faults":[{"site":"elite_adopt","walker":1,"at":3,"kind":"stall","stall_ms":25},{"site":"walker_iteration","at":1,"kind":"throw","stall_ms":10}],"resume_from":{"schema":"cspls-pool-checkpoint/2","walkers":[{"stage":"pending"},{"stage":"running","checkpoint":{"schema":"cspls-checkpoint/2","values":[3,1,4,0,2],"cost":7,"best":[0,1,2,4,3],"best_cost":2,"tabu_until":[0,12,0,40,3],"marks_since_reset":3,"rng_state":[81985529216486895,42,18446744073709551615,7],"stats":{"iterations":1234,"swaps":1000,"plateau_moves":200,"local_minima":34,"resets":5,"restarts":1,"cost_evaluations":99999,"seconds":0.125},"iter_in_walk":234,"restarts_done":1}},{"stage":"done","result":{"solved":false,"cost":1,"solution":[4,3,2,1,0],"stats":{"iterations":5000,"swaps":4100,"plateau_moves":600,"local_minima":300,"resets":30,"restarts":2,"cost_evaluations":123456,"seconds":0.5},"interrupted":true,"stop_cause":"deadline","error":""},"injected_faults":1}],"elite":[{"has_entry":true,"cost":1,"values":[4,3,2,1,0],"tick":17,"publisher":2,"publishes":9,"accepted":4},{"has_entry":false,"cost":0,"values":[],"tick":0,"publisher":18446744073709551615,"publishes":0,"accepted":0}],"comm_clock":17,"comm_adoptions":3}})json";
constexpr std::string_view kWarmRequest =
    R"json({"problem":"costas:7","walkers":1,"seed":24301,"scheduling":"threads","neighborhood":"isolated","exchange":"none","comm_mode":"on_reset","termination":"first-finisher","comm_period":1000,"comm_adopt_probability":0.5,"comm_decay":0,"max_threads":0,"deadline_ms":0,"retry":{"max_attempts":1,"base_backoff_ms":0,"multiplier":2,"jitter":0},"watchdog_stall_ms":0,"warm_start":[1,2,3,4,5,6,7]})json";
constexpr std::string_view kReport =
    R"json({"problem":"costas:7","solved":true,"cancelled":false,"deadline_expired":false,"preempted":false,"winner":0,"cost":0,"wall_seconds":0.0125,"time_to_solution_seconds":0.01,"total_iterations":4321,"comm_publishes":2,"elite_accepted":1,"comm_adoptions":1,"failed_walkers":1,"attempts":2,"degraded":true,"solution":[2,4,1,7,5,3,6],"walkers":[{"id":0,"solved":true,"interrupted":false,"cost":0,"iterations":4321,"swaps":4000,"plateau_moves":300,"local_minima":21,"resets":2,"restarts":0,"cost_evaluations":77777,"seconds":0.01,"failed":false},{"id":1,"solved":false,"interrupted":true,"cost":9223372036854775807,"iterations":0,"swaps":0,"plateau_moves":0,"local_minima":0,"resets":0,"restarts":0,"cost_evaluations":0,"seconds":0,"failed":true,"error":"injected fault: throw at walker_iteration count 3 (walker 1)"}]})json";
constexpr std::string_view kCheckpoint =
    R"json({"schema":"cspls-checkpoint/2","values":[3,1,4,0,2],"cost":7,"best":[0,1,2,4,3],"best_cost":2,"tabu_until":[0,12,0,40,3],"marks_since_reset":3,"rng_state":[81985529216486895,42,18446744073709551615,7],"stats":{"iterations":1234,"swaps":1000,"plateau_moves":200,"local_minima":34,"resets":5,"restarts":1,"cost_evaluations":99999,"seconds":0.125},"iter_in_walk":234,"restarts_done":1})json";
constexpr std::string_view kPoolCheckpoint =
    R"json({"schema":"cspls-pool-checkpoint/2","walkers":[{"stage":"pending"},{"stage":"running","checkpoint":{"schema":"cspls-checkpoint/2","values":[3,1,4,0,2],"cost":7,"best":[0,1,2,4,3],"best_cost":2,"tabu_until":[0,12,0,40,3],"marks_since_reset":3,"rng_state":[81985529216486895,42,18446744073709551615,7],"stats":{"iterations":1234,"swaps":1000,"plateau_moves":200,"local_minima":34,"resets":5,"restarts":1,"cost_evaluations":99999,"seconds":0.125},"iter_in_walk":234,"restarts_done":1}},{"stage":"done","result":{"solved":false,"cost":1,"solution":[4,3,2,1,0],"stats":{"iterations":5000,"swaps":4100,"plateau_moves":600,"local_minima":300,"resets":30,"restarts":2,"cost_evaluations":123456,"seconds":0.5},"interrupted":true,"stop_cause":"deadline","error":""},"injected_faults":1}],"elite":[{"has_entry":true,"cost":1,"values":[4,3,2,1,0],"tick":17,"publisher":2,"publishes":9,"accepted":4},{"has_entry":false,"cost":0,"values":[],"tick":0,"publisher":18446744073709551615,"publishes":0,"accepted":0}],"comm_clock":17,"comm_adoptions":3})json";
constexpr std::string_view kFaultPlan =
    R"json({"site":"elite_adopt","walker":1,"at":3,"kind":"stall","stall_ms":25})json";
constexpr std::string_view kAcceptedEvent =
    R"json({"event":"accepted","id":7,"tag":"t-1","priority":"high"})json";
constexpr std::string_view kReportEvent =
    R"json({"event":"report","id":7,"tag":"t-1","status":"failed","report":{"problem":"costas:7","solved":true,"cancelled":false,"deadline_expired":false,"preempted":false,"winner":0,"cost":0,"wall_seconds":0.0125,"time_to_solution_seconds":0.01,"total_iterations":4321,"comm_publishes":2,"elite_accepted":1,"comm_adoptions":1,"failed_walkers":1,"attempts":2,"degraded":true,"solution":[2,4,1,7,5,3,6],"walkers":[{"id":0,"solved":true,"interrupted":false,"cost":0,"iterations":4321,"swaps":4000,"plateau_moves":300,"local_minima":21,"resets":2,"restarts":0,"cost_evaluations":77777,"seconds":0.01,"failed":false},{"id":1,"solved":false,"interrupted":true,"cost":9223372036854775807,"iterations":0,"swaps":0,"plateau_moves":0,"local_minima":0,"resets":0,"restarts":0,"cost_evaluations":0,"seconds":0,"failed":true,"error":"injected fault: throw at walker_iteration count 3 (walker 1)"}]},"error":"every attempt crashed"})json";
constexpr std::string_view kErrorEvent =
    R"json({"event":"error","code":"bad_request","message":"SolveRequest: bad","tag":"t-1"})json";

util::Json parsed(std::string_view text) {
  std::optional<util::Json> json = util::Json::parse(text);
  EXPECT_TRUE(json.has_value()) << text;
  return json.value_or(util::Json{});
}

TEST(WireGolden, EncodingsAreByteIdenticalToTheRecordedOnes) {
  EXPECT_EQ(golden_request().to_json_string(), kRequest);
  EXPECT_EQ(golden_warm_request().to_json_string(), kWarmRequest);
  EXPECT_EQ(golden_report().to_json_string(), kReport);
  EXPECT_EQ(golden_checkpoint().to_json().dump(), kCheckpoint);
  EXPECT_EQ(golden_pool_checkpoint().to_json().dump(), kPoolCheckpoint);
  EXPECT_EQ(golden_fault_plan().to_json().dump(), kFaultPlan);
  EXPECT_EQ(serve::encode_accepted(7, "t-1", api::Priority::kHigh),
            kAcceptedEvent);
  EXPECT_EQ(serve::encode_report(7, "t-1", "failed", golden_report(),
                                 "every attempt crashed"),
            kReportEvent);
  EXPECT_EQ(serve::encode_error("bad_request", "SolveRequest: bad", "t-1"),
            kErrorEvent);
}

TEST(WireGolden, RecordedBytesDecodeToEqualValues) {
  EXPECT_EQ(api::SolveRequest::from_json_string(kRequest), golden_request());
  EXPECT_EQ(api::SolveRequest::from_json_string(kWarmRequest),
            golden_warm_request());
  EXPECT_EQ(api::SolveReport::from_json_string(kReport), golden_report());
  EXPECT_EQ(core::Checkpoint::from_json(parsed(kCheckpoint)),
            golden_checkpoint());
  EXPECT_EQ(parallel::PoolCheckpoint::from_json(parsed(kPoolCheckpoint)),
            golden_pool_checkpoint());
  EXPECT_EQ(util::fault::FaultPlan::from_json(parsed(kFaultPlan)),
            golden_fault_plan());

  const util::Json accepted = parsed(kAcceptedEvent);
  EXPECT_EQ(accepted.at("id").as_uint64(), 7u);
  EXPECT_EQ(api::kPriorityNames.parse(accepted.at("priority").as_string()),
            api::Priority::kHigh);
  const util::Json report = parsed(kReportEvent);
  EXPECT_EQ(report.at("status").as_string(),
            api::name_of(api::JobStatus::kFailed));
  EXPECT_EQ(api::SolveReport::from_json(report.at("report")),
            golden_report());
  EXPECT_EQ(parsed(kErrorEvent).at("code").as_string(), serve::kErrBadRequest);
}

// --- Strict and named ----------------------------------------------------

/// One hostile document: a golden one with its only `find` replaced by
/// `replace`.  The decoder must reject it with a message holding `names`.
struct Edit {
  std::string_view find;
  std::string_view replace;
  std::string_view names;
};

template <typename Decode>
void expect_rejections(std::string_view golden, Decode decode,
                       std::initializer_list<Edit> edits) {
  for (const Edit& edit : edits) {
    std::string text(golden);
    const std::size_t at = text.find(edit.find);
    ASSERT_NE(at, std::string::npos) << edit.find;
    ASSERT_EQ(text.find(edit.find, at + 1), std::string::npos)
        << edit.find << " is not unique";
    text.replace(at, edit.find.size(), edit.replace);
    try {
      decode(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(edit.names), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not std::invalid_argument: " << e.what();
    }
  }
}

// Per decoder: an unknown member, a missing required member, a mistyped
// member and an out-of-range integer, then nested and value checks, and a
// repeated member.
TEST(WireStrictness, EveryDecoderRejectsNamingTheMember) {
  const auto request = [](std::string_view text) {
    (void)api::SolveRequest::from_json_string(text);
  };
  expect_rejections(
      kRequest, request,
      {{R"("deadline_ms":9000)", R"("deadline-ms":9000)",
        R"(SolveRequest: unknown member "deadline-ms")"},
       {R"("problem":"langford:5",)", "",
        R"(SolveRequest: missing member "problem")"},
       {R"("walkers":3)", R"("walkers":"3")",
        "SolveRequest.walkers: expected a number"},
       {R"("max_attempts":3)", R"("max_attempts":4294967296)",
        "SolveRequest.retry.max_attempts"},
       {R"("reset_limit":12)", R"("reset_limit":4294967296)",
        "SolveRequest.params.reset_limit"},
       {R"("kind":"stall")", R"("kind":"melt")",
        R"(SolveRequest.faults[0].kind: unknown name "melt")"},
       {R"("swaps":1000)", R"("swaps":"1000")",
        "SolveRequest.resume_from.walkers[1].checkpoint.stats.swaps: "
        "expected a number"},
       {R"("watchdog_stall_ms":750)",
        R"("watchdog_stall_ms":750,"trace":false)",
        R"(SolveRequest: unknown member "trace")"},
       {R"("scheduling":"sequential")", R"("scheduling":"emulated-race")",
        R"(SolveRequest.scheduling: unknown name "emulated-race")"},
       {R"("walkers":3)", R"("walkers":3,"walkers":4)",
        R"(SolveRequest: repeated member "walkers")"},
       {R"("reset_limit":12)", R"("reset_limit":12,"reset_limit":1)",
        R"(SolveRequest.params: repeated member "reset_limit")"}});
  expect_rejections(kWarmRequest, request,
                    {{"6,7]", "6,4294967297]",
                      "SolveRequest.warm_start[6]: expected an integer"}});

  expect_rejections(
      kReport,
      [](std::string_view text) {
        (void)api::SolveReport::from_json_string(text);
      },
      {{R"({"problem")", R"({"bogus":1,"problem")",
        R"(SolveReport: unknown member "bogus")"},
       {R"("failed":false})", R"("failed":false,"bogus":1})",
        R"(SolveReport.walkers[0]: unknown member "bogus")"},
       {R"("winner":0,)", "", R"(SolveReport: missing member "winner")"},
       {R"("degraded":true)", R"("degraded":1)",
        "SolveReport.degraded: expected a bool"},
       {R"("attempts":2)", R"("attempts":4294967296)",
        "SolveReport.attempts"},
       {R"("solution":[2,)", R"("solution":[4294967297,)",
        "SolveReport.solution[0]"},
       {R"("attempts":2)", R"("attempts":2,"attempts":3)",
        R"(SolveReport: repeated member "attempts")"}});

  expect_rejections(
      kCheckpoint,
      [](std::string_view text) {
        (void)core::Checkpoint::from_json(parsed(text));
      },
      {{R"({"schema")", R"({"bogus":1,"schema")",
        R"(core::Checkpoint: unknown member "bogus")"},
       {R"("seconds":0.125})", R"("seconds":0.125,"bogus":1})",
        R"(core::Checkpoint.stats: unknown member "bogus")"},
       {R"("iter_in_walk":234,)", "",
        R"(core::Checkpoint: missing member "iter_in_walk")"},
       {R"("swaps":1000)", R"("swaps":"1000")",
        "core::Checkpoint.stats.swaps: expected a number"},
       {R"("marks_since_reset":3)", R"("marks_since_reset":4294967296)",
        "core::Checkpoint.marks_since_reset"},
       {"[3,1,4,0,2]", "[3,1,4,0,4294967297]", "core::Checkpoint.values[4]"},
       {"[81985529216486895,42,18446744073709551615,7]", "[0,0,0,0]",
        "core::Checkpoint.rng_state: all-zero"},
       {R"("restarts_done":1})", R"("restarts_done":1,"trace_samples":[]})",
        R"(core::Checkpoint: unknown member "trace_samples")"},
       {"cspls-checkpoint/2", "cspls-checkpoint/1",
        "core::Checkpoint.schema: unsupported schema "
        R"("cspls-checkpoint/1")"},
       {R"("cost":7)", R"("cost":7,"cost":0)",
        R"(core::Checkpoint: repeated member "cost")"}});

  expect_rejections(
      kPoolCheckpoint,
      [](std::string_view text) {
        (void)parallel::PoolCheckpoint::from_json(parsed(text));
      },
      {{R"({"stage":"pending"})", R"({"stage":"pending","checkpoint":{}})",
        R"(parallel::PoolCheckpoint.walkers[0]: unknown member "checkpoint")"},
       {R"(,"injected_faults":1)", "",
        R"(parallel::PoolCheckpoint.walkers[2]: missing member )"
        R"("injected_faults")"},
       {R"(,"comm_adoptions":3)", "",
        R"(parallel::PoolCheckpoint: missing member "comm_adoptions")"},
       {R"("stop_cause":"deadline")", R"("stop_cause":4)",
        "parallel::PoolCheckpoint.walkers[2].result.stop_cause: expected a "
        "string"},
       {R"("swaps":1000)", R"("swaps":"1000")",
        "parallel::PoolCheckpoint.walkers[1].checkpoint.stats.swaps: "
        "expected a number"},
       {R"("values":[4,3,2,1,0])", R"("values":[4,3,2,1,-4294967297])",
        "parallel::PoolCheckpoint.elite[0].values[4]"},
       {R"("injected_faults":1)", R"("trace":{},"injected_faults":1)",
        R"(parallel::PoolCheckpoint.walkers[2]: unknown member "trace")"},
       {"cspls-pool-checkpoint/2", "cspls-pool-checkpoint/1",
        "parallel::PoolCheckpoint.schema: unsupported schema "
        R"("cspls-pool-checkpoint/1")"},
       {R"({"stage":"pending"})", R"({"stage":"pending","stage":"done"})",
        R"(parallel::PoolCheckpoint.walkers[0]: repeated member "stage")"}});

  expect_rejections(
      kFaultPlan,
      [](std::string_view text) {
        (void)util::fault::FaultPlan::from_json(parsed(text));
      },
      {{R"("stall_ms":25})", R"("stall_ms":25,"when":3})",
        R"(FaultPlan: unknown member "when")"},
       {R"("site":"elite_adopt",)", "", R"(FaultPlan: missing member "site")"},
       {R"("at":3)", R"("at":"3")", "FaultPlan.at: expected a number"},
       {R"("stall_ms":25)", R"("stall_ms":-1)", "FaultPlan.stall_ms"},
       {R"("walker":1)", R"("walker":18446744073709551616)",
        "FaultPlan.walker"},
       {R"("at":3)", R"("at":3,"at":4)", R"(FaultPlan: repeated member "at")"}});
}

// --- One name table per wire enum ----------------------------------------

static_assert(parallel::name_of(parallel::Scheduling::kSequential) ==
              "sequential");  // name_of stays constexpr

/// Every enumerator round-trips through its table, `name_of` reads that
/// table, and an unknown name parses to std::nullopt.
template <typename Enum, Enum kLast, typename NameOf>
void expect_table(const util::NameTable<Enum, kLast>& table, NameOf name_of) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < table.kSize; ++i) {
    const auto value = static_cast<Enum>(i);
    const std::string_view name = table.name(value);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(name_of(value), name);
    EXPECT_EQ(table.parse(name), std::optional<Enum>(value)) << name;
    EXPECT_NE(table.joined().find(name), std::string::npos) << name;
  }
  EXPECT_EQ(table.parse("no-such-name"), std::nullopt);
}

TEST(WireNames, EveryEnumeratorRoundTripsThroughItsOneTable) {
  const auto policy = [](auto value) { return parallel::name_of(value); };
  expect_table(parallel::kSchedulingNames, policy);
  expect_table(parallel::kNeighborhoodNames, policy);
  expect_table(parallel::kExchangeNames, policy);
  expect_table(parallel::kCommModeNames, policy);
  expect_table(parallel::kTerminationNames, policy);
  expect_table(parallel::kRestartScheduleNames, policy);
  const auto api_name = [](auto value) { return api::name_of(value); };
  expect_table(api::kPriorityNames, api_name);
  expect_table(api::kJobStatusNames, api_name);
  const auto fault_name = [](auto value) {
    return util::fault::name_of(value);
  };
  expect_table(util::fault::kSiteNames, fault_name);
  expect_table(util::fault::kKindNames, fault_name);
  // The two with no public name functions: the table is the codec's only
  // spelling of them.
  const auto& stages = parallel::PoolCheckpoint::kStageNames;
  expect_table(stages, [&](auto value) { return stages.name(value); });
  const auto& causes = core::kStopCauseNames;
  expect_table(causes, [&](auto value) { return causes.name(value); });
}

}  // namespace
}  // namespace cspls
