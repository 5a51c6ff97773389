// util::fault — the deterministic fault-injection layer: FaultPlan JSON
// round-trips with strict unknown-member rejection, Session probe
// counting/firing semantics over plan lists, and the compile-time gate
// (production builds must see inert no-op sites).
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace cspls::util::fault {
namespace {

TEST(FaultPlanJson, RoundTripsThroughJson) {
  FaultPlan plan;
  plan.site = Site::kServiceDispatch;
  plan.walker = kAnyWalker;
  plan.at_count = 2;
  plan.kind = Kind::kThrow;
  const util::Json json = plan.to_json();
  EXPECT_EQ(json.find("walker"), nullptr);  // wildcard is the absent member
  EXPECT_EQ(FaultPlan::from_json(json), plan);

  plan.walker = 5;
  plan.kind = Kind::kStall;
  plan.stall_ms = 40;
  const util::Json targeted = plan.to_json();
  ASSERT_NE(targeted.find("walker"), nullptr);
  EXPECT_EQ(FaultPlan::from_json(targeted), plan);
}

TEST(FaultPlanJson, RejectsUnknownAndMissingMembers) {
  util::Json unknown = util::Json::object();
  unknown.set("site", std::string("elite_publish")).set("when", std::uint64_t{3});
  try {
    (void)FaultPlan::from_json(unknown);
    FAIL() << "unknown member accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("when"), std::string::npos);
  }
  EXPECT_THROW((void)FaultPlan::from_json(util::Json::object()),
               std::invalid_argument);  // missing "site"
  util::Json zero_at = util::Json::object();
  zero_at.set("site", std::string("elite_publish")).set("at", std::uint64_t{0});
  EXPECT_THROW((void)FaultPlan::from_json(zero_at), std::invalid_argument);
}

TEST(FaultSession, CountsProbesPerSiteAndFiresAtTheScheduledCount) {
  FaultPlan plan;
  plan.site = Site::kWalkerIteration;
  plan.walker = 1;
  plan.at_count = 3;
  plan.kind = Kind::kCorrupt;
  const std::vector<FaultPlan> plans{plan};

  Session target(&plans, 1);
  EXPECT_TRUE(target.armed());
  EXPECT_EQ(target.probe(Site::kWalkerIteration), Action::kNone);
  EXPECT_EQ(target.probe(Site::kElitePublish), Action::kNone);  // other site
  EXPECT_EQ(target.probe(Site::kWalkerIteration), Action::kNone);
  EXPECT_EQ(target.probe(Site::kWalkerIteration), Action::kCorrupt);
  EXPECT_EQ(target.probe(Site::kWalkerIteration), Action::kNone);  // once
  EXPECT_EQ(target.fired(), 1u);

  // A different walker never matches a targeted plan.
  Session bystander(&plans, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(bystander.probe(Site::kWalkerIteration), Action::kNone);
  }
  EXPECT_EQ(bystander.fired(), 0u);
}

TEST(FaultSession, ThrowPlansRaiseFaultInjectedWithTheSiteInTheMessage) {
  FaultPlan plan;
  plan.site = Site::kServiceDispatch;
  plan.at_count = 2;
  const std::vector<FaultPlan> plans{plan};
  Session session(&plans, kAnyWalker);
  EXPECT_EQ(session.probe(Site::kServiceDispatch), Action::kNone);
  try {
    (void)session.probe(Site::kServiceDispatch);
    FAIL() << "plan did not fire";
  } catch (const FaultInjected& e) {
    EXPECT_NE(std::string(e.what()).find("service_dispatch"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
  EXPECT_EQ(session.fired(), 1u);
}

TEST(FaultSession, DisarmedSessionsNeverFire) {
  Session null_plans(nullptr, 0);
  EXPECT_FALSE(null_plans.armed());
  const std::vector<FaultPlan> empty;
  Session empty_plans(&empty, 0);
  EXPECT_FALSE(empty_plans.armed());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(null_plans.probe(Site::kWalkerIteration), Action::kNone);
    EXPECT_EQ(empty_plans.probe(Site::kWalkerIteration), Action::kNone);
  }
  EXPECT_EQ(null_plans.fired(), 0u);
  EXPECT_EQ(empty_plans.fired(), 0u);
}

TEST(FaultSession, WildcardPlansMatchEveryWalker) {
  FaultPlan plan;
  plan.site = Site::kEliteAdopt;
  plan.walker = kAnyWalker;
  plan.at_count = 1;
  plan.kind = Kind::kCorrupt;
  const std::vector<FaultPlan> plans{plan};
  for (std::size_t walker = 0; walker < 3; ++walker) {
    Session session(&plans, walker);
    EXPECT_EQ(session.probe(Site::kEliteAdopt), Action::kCorrupt);
  }
}

// The compile-time gate: in default builds the sites must be inert no-ops
// — armed sessions notwithstanding — so production binaries carry zero
// injection behaviour.  The CI fault-injection leg builds with
// -DCSPLS_FAULT_INJECTION=ON, where the same free probe() forwards to the
// session (covered above through Session::probe directly).
TEST(FaultGate, FreeProbeMatchesTheCompileTimeSwitch) {
  FaultPlan plan;
  plan.site = Site::kWalkerIteration;
  plan.at_count = 1;
  plan.kind = Kind::kCorrupt;
  const std::vector<FaultPlan> plans{plan};
  Session session(&plans, 0);
  if (kCompiledIn) {
    EXPECT_EQ(probe(&session, Site::kWalkerIteration), Action::kCorrupt);
    EXPECT_EQ(session.fired(), 1u);
  } else {
    // No-op: the probe never fires, whatever the plans.
    EXPECT_EQ(probe(&session, Site::kWalkerIteration), Action::kNone);
    EXPECT_EQ(session.fired(), 0u);
  }
  EXPECT_EQ(probe(nullptr, Site::kWalkerIteration), Action::kNone);
}

}  // namespace
}  // namespace cspls::util::fault
