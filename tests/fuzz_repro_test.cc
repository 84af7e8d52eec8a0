// Repro files: serialization round-trip, deterministic replay, loud
// failure on malformed input.
#include <gtest/gtest.h>

#include "common/check.h"
#include "fuzz/repro.h"
#include "model/serialize.h"

namespace mpcp::fuzz {
namespace {

constexpr const char* kSystem = R"(
processors 2
resource G1
task hi period=40 processor=0
  compute 2
  lock G1
  compute 3
  unlock G1
end
task remote period=50 processor=1
  compute 1
  lock G1
  compute 4
  unlock G1
  compute 1
end
)";

ReproCase makeCase(Mutation m) {
  ReproCase rc;
  rc.protocol = "mpcp";
  rc.oracle = "invariant:gcs-priority";
  rc.mutation = m;
  rc.seed = 4711;
  rc.horizon_cap = 150'000;
  rc.differential_horizon = 900;
  rc.system = parseTaskSystemFromString(kSystem);
  return rc;
}

TEST(FuzzRepro, WriteParseRoundTrip) {
  const ReproCase rc = makeCase(Mutation::kGcsCeilingBase);
  const ReproCase back = parseRepro(writeRepro(rc));
  EXPECT_EQ(back.protocol, rc.protocol);
  EXPECT_EQ(back.oracle, rc.oracle);
  EXPECT_EQ(back.mutation, rc.mutation);
  EXPECT_EQ(back.seed, rc.seed);
  EXPECT_EQ(back.horizon_cap, rc.horizon_cap);
  EXPECT_EQ(back.differential_horizon, rc.differential_horizon);
  ASSERT_EQ(back.system.tasks().size(), rc.system.tasks().size());
  EXPECT_EQ(back.system.tasks()[0].name, "hi");
  // Round-tripping the round-trip is byte-stable.
  EXPECT_EQ(writeRepro(back), writeRepro(rc));
}

TEST(FuzzRepro, ReplayIsByteIdenticalAcrossInvocations) {
  const ReproCase rc = makeCase(Mutation::kNone);
  const ReplayOutcome a = replay(rc);
  const ReplayOutcome b = replay(rc);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(FuzzRepro, CleanSystemReplaysClean) {
  const ReproCase rc = makeCase(Mutation::kNone);
  const ReplayOutcome out = replay(rc);
  EXPECT_TRUE(out.clean()) << out.report;
  EXPECT_FALSE(out.reproducesRecordedOracle(rc));
}

TEST(FuzzRepro, MutationReplayReproducesRecordedOracle) {
  const ReproCase rc = makeCase(Mutation::kGcsCeilingBase);
  const ReplayOutcome with = replay(rc, /*with_mutation=*/true);
  EXPECT_FALSE(with.clean());
  EXPECT_TRUE(with.reproducesRecordedOracle(rc)) << with.report;
  // The same file replayed without the fault injection is clean — the
  // exact property the committed corpus relies on.
  const ReplayOutcome without = replay(rc, /*with_mutation=*/false);
  EXPECT_TRUE(without.clean()) << without.report;
}

TEST(FuzzRepro, MalformedHeaderThrows) {
  EXPECT_THROW((void)parseRepro("protocol mpcp\n"), ConfigError);
  EXPECT_THROW((void)parseRepro("oracle x\nsystem\nprocessors 1\n"),
               ConfigError);
  const ReproCase rc = makeCase(Mutation::kNone);
  std::string text = writeRepro(rc);
  text.insert(text.find("system"), "mutation no-such-mutation\n");
  EXPECT_THROW((void)parseRepro(text), ConfigError);

  // Numeric headers are whole tokens: no wraparound, no trailing bytes,
  // and a grace that is finite and positive. Each bad header lands on
  // line 7, just before "system".
  const std::string clean = writeRepro(rc);
  for (const std::string header :
       {"seed -1", "seed 12abc", "seed abc", "seed 18446744073709551616",
        "horizon-cap 10x", "differential-horizon 1e3",
        "fault-watchdog 5.0", "fault-grace nan", "fault-grace 1.5x",
        "fault-grace inf", "fault-grace 0", "fault-grace -2"}) {
    std::string bad = clean;
    bad.insert(bad.find("system"), header + "\n");
    const std::size_t space = header.find(' ');
    const std::string expected =
        "repro parse error at line 7: bad " + header.substr(0, space) +
        " '" + header.substr(space + 1) + "'";
    try {
      (void)parseRepro(bad);
      ADD_FAILURE() << "accepted '" << header << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  std::string ok = clean;
  ok.insert(ok.find("system"), "fault-grace 2.5\n");
  EXPECT_EQ(parseRepro(ok).fault_grace, 2.5);
}

TEST(FuzzRepro, MissingFileThrows) {
  EXPECT_THROW((void)loadReproFile("/nonexistent/path/to.repro"),
               ConfigError);
}

}  // namespace
}  // namespace mpcp::fuzz
