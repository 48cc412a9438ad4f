// Contract tests for the deterministic fault-injection substrate
// (util/fault.hpp): nth arming fires exactly once on exactly the nth hit,
// hash arming fires on every context-prefix match, unarmed points never
// fire, malformed specs throw without disturbing the installed schedule,
// and an SM_FAULT spec round-trips through a child process's environment
// (the path the sweep supervisor's chaos smokes rely on).
#include "util/fault.hpp"

#include "util/subprocess.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace {

using namespace sm;
using util::FaultPoint;

// Fault state is process-global; every test starts by installing its own
// schedule (fault_arm resets all hit counters), so order never matters.

TEST(FaultArm, BadSpecsThrow) {
  EXPECT_THROW(util::fault_arm("explode:1"), std::invalid_argument);
  EXPECT_THROW(util::fault_arm("crash-before-append"), std::invalid_argument);
  EXPECT_THROW(util::fault_arm("crash-before-append:0"),
               std::invalid_argument);
  EXPECT_THROW(util::fault_arm("crash-before-append:two"),
               std::invalid_argument);
  EXPECT_THROW(util::fault_arm("torn-write:hash="), std::invalid_argument);
  EXPECT_THROW(util::fault_arm("slow-cell:1:ms=abc"), std::invalid_argument);
  EXPECT_THROW(util::fault_arm("slow-cell:1:seconds=2"),
               std::invalid_argument);
  EXPECT_THROW(util::fault_arm("crash-before-append:1:ms=5:extra"),
               std::invalid_argument);
  // Counts past 2^64 - 1 are rejected, not wrapped to 1 or 0.
  EXPECT_THROW(util::fault_arm("crash-before-append:18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(util::fault_arm("slow-cell:1:ms=18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(util::fault_arm("crash-before-append:+1"),
               std::invalid_argument);
}

TEST(FaultArm, BadSpecLeavesPreviousScheduleInstalled) {
  util::fault_arm("crash-before-append:1");
  EXPECT_THROW(util::fault_arm("garbage:1"), std::invalid_argument);
  // The old schedule (and its counters) must survive the failed arm.
  EXPECT_TRUE(util::fault_hit(FaultPoint::CrashBeforeAppend).fire);
  util::fault_arm("");
}

TEST(FaultHit, UnarmedPointsNeverFireButStillCount) {
  util::fault_arm("");
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend).fire);
    EXPECT_FALSE(util::fault_hit(FaultPoint::CrashAfterAppend).fire);
    EXPECT_FALSE(util::fault_hit(FaultPoint::TornWrite).fire);
    EXPECT_FALSE(util::fault_hit(FaultPoint::SlowCell).fire);
  }
  EXPECT_EQ(util::fault_hits(FaultPoint::CrashBeforeAppend), 5u);
  EXPECT_EQ(util::fault_hits(FaultPoint::SlowCell), 5u);
}

TEST(FaultHit, NthFiresExactlyOnceOnExactlyTheNthHit) {
  util::fault_arm("crash-before-append:3");
  for (std::size_t hit = 1; hit <= 6; ++hit) {
    const bool fired = util::fault_hit(FaultPoint::CrashBeforeAppend).fire;
    EXPECT_EQ(fired, hit == 3) << "hit " << hit;
    // Arming one point must not leak into the others.
    EXPECT_FALSE(util::fault_hit(FaultPoint::CrashAfterAppend).fire);
  }
  EXPECT_EQ(util::fault_hits(FaultPoint::CrashBeforeAppend), 6u);
}

TEST(FaultHit, ReArmResetsCountersAndOneShotState) {
  util::fault_arm("torn-write:2");
  EXPECT_FALSE(util::fault_hit(FaultPoint::TornWrite).fire);
  EXPECT_TRUE(util::fault_hit(FaultPoint::TornWrite).fire);
  // Same spec again: the hit counter and the one-shot flag both reset, so
  // the schedule replays from scratch.
  util::fault_arm("torn-write:2");
  EXPECT_EQ(util::fault_hits(FaultPoint::TornWrite), 0u);
  EXPECT_FALSE(util::fault_hit(FaultPoint::TornWrite).fire);
  EXPECT_TRUE(util::fault_hit(FaultPoint::TornWrite).fire);
  util::fault_arm("");
}

TEST(FaultHit, HashPrefixFiresOnEveryMatchingHit) {
  util::fault_arm("crash-before-append:hash=ab12");
  // Fires on every hit whose context starts with the prefix — a poison
  // cell kills every worker that touches it, not just the first.
  EXPECT_TRUE(
      util::fault_hit(FaultPoint::CrashBeforeAppend, "ab12deadbeef").fire);
  EXPECT_TRUE(
      util::fault_hit(FaultPoint::CrashBeforeAppend, "ab12deadbeef").fire);
  EXPECT_TRUE(util::fault_hit(FaultPoint::CrashBeforeAppend, "ab12").fire);
  // Non-matching contexts (and the empty context) stay inert forever.
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend, "ab99").fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend, "ab1").fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend, "").fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend).fire);
  util::fault_arm("");
}

TEST(FaultHit, SlowCellCarriesSleepDuration) {
  util::fault_arm("slow-cell:1:ms=250");
  const auto a = util::fault_hit(FaultPoint::SlowCell);
  EXPECT_TRUE(a.fire);
  EXPECT_EQ(a.sleep_ms, 250u);
  // Default duration when ms= is omitted.
  util::fault_arm("slow-cell:1");
  EXPECT_EQ(util::fault_hit(FaultPoint::SlowCell).sleep_ms, 30000u);
  util::fault_arm("");
}

TEST(FaultHit, MultipleArmsScheduleIndependently) {
  util::fault_arm("crash-before-append:1,crash-after-append:2");
  EXPECT_TRUE(util::fault_hit(FaultPoint::CrashBeforeAppend).fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashAfterAppend).fire);
  EXPECT_TRUE(util::fault_hit(FaultPoint::CrashAfterAppend).fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::TornWrite).fire);
  util::fault_arm("");
}

TEST(FaultHit, ArmFromEnvironment) {
  ::setenv("SM_FAULT", "torn-write:1", 1);
  util::fault_arm_from_env();
  ::unsetenv("SM_FAULT");
  EXPECT_TRUE(util::fault_hit(FaultPoint::TornWrite).fire);
  EXPECT_FALSE(util::fault_hit(FaultPoint::CrashBeforeAppend).fire);
  util::fault_arm("");
}

// ------------------------------------------------- child-process round trip

// Helper run *in a child process* by FaultEnv.RoundTripsThroughChildEnv:
// re-executes this test binary with SM_FAULT in the environment and no
// explicit fault_arm call, so the lazy arm-on-first-hit path is what gets
// exercised — exactly how a spawned sm_flow worker arms itself.
TEST(FaultChildMode, CrashWhenEnvArmed) {
  if (!std::getenv("SM_FAULT_TEST_CHILD"))
    GTEST_SKIP() << "helper body for FaultEnv.RoundTripsThroughChildEnv";
  // SM_FAULT=crash-before-append:2 — the first hit must pass, the second
  // must fire, and the crash must surface as kFaultCrashExit.
  if (util::fault_hit(FaultPoint::CrashBeforeAppend).fire)
    util::fault_crash(FaultPoint::CrashBeforeAppend);
  if (util::fault_hit(FaultPoint::CrashBeforeAppend).fire)
    util::fault_crash(FaultPoint::CrashBeforeAppend);
  // Reaching here means the nth trigger never fired: exit 0, which the
  // parent reads as round-trip failure when it expected a crash.
}

TEST(FaultEnv, RoundTripsThroughChildEnv) {
  const std::string exe = util::self_exe_path();
  ASSERT_FALSE(exe.empty());
  const std::vector<std::string> argv = {
      exe, "--gtest_filter=FaultChildMode.CrashWhenEnvArmed"};

  // Armed child: dies with the fault exit code on its second hit.
  auto armed = util::Child::spawn(
      argv, {{"SM_FAULT", "crash-before-append:2"},
             {"SM_FAULT_TEST_CHILD", "1"}});
  const auto st = armed.wait();
  EXPECT_TRUE(st.exited);
  EXPECT_EQ(st.code, util::kFaultCrashExit) << st.describe();

  // Unarmed child (empty SM_FAULT): both hits pass, process exits clean.
  auto unarmed = util::Child::spawn(
      argv, {{"SM_FAULT", ""}, {"SM_FAULT_TEST_CHILD", "1"}});
  EXPECT_TRUE(unarmed.wait().ok());
}

}  // namespace
