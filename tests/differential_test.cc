// Differential testing: the event-driven Engine + MpcpProtocol against
// the independent tick-stepped reference implementation. Identical
// finish times and lock-path counters for every job across random
// workloads and the paper's Example 3 — any divergence flags a
// mechanical bug in one of the two.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/simulate.h"
#include "reference_parity.h"
#include "taskgen/generator.h"
#include "taskgen/paper_examples.h"

namespace mpcp {
namespace {

void expectSameSchedule(const TaskSystem& sys, Time horizon,
                        const std::string& label) {
  testing::expectMatchesReference(ProtocolKind::kMpcp, sys, horizon, label);
}

TEST(Differential, Example3MatchesReference) {
  const paper::Example3 ex = paper::makeExample3();
  expectSameSchedule(ex.sys, 600, "example3");
}

TEST(Differential, Examples1And2MatchReference) {
  expectSameSchedule(paper::makeExample1(7).sys, 400, "example1");
  expectSameSchedule(paper::makeExample2(9).sys, 400, "example2");
}

TEST(Differential, RandomWorkloadsMatchReference) {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.5;
  p.period_min = 20;
  p.period_max = 200;   // small periods: the O(horizon) oracle is slow
  p.period_granularity = 10;
  p.global_resources = 2;
  p.global_sharing_prob = 0.9;
  p.cs_min = 1;
  p.cs_max = 5;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 911);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 1'500, "seed " + std::to_string(seed));
  }
}

TEST(Differential, SuspendingWorkloadsMatchReference) {
  WorkloadParams p;
  p.processors = 2;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.period_min = 20;
  p.period_max = 150;
  p.period_granularity = 5;
  p.global_resources = 1;
  p.cs_max = 4;
  p.suspension_prob = 0.6;
  p.suspend_max = 8;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 401);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 1'000, "susp seed " + std::to_string(seed));
  }
}

TEST(Differential, OverloadedSystemsStillAgree) {
  // Past the schedulability cliff both implementations must still agree
  // tick for tick (misses included).
  WorkloadParams p;
  p.processors = 2;
  p.tasks_per_processor = 4;
  p.utilization_per_processor = 0.95;
  p.period_min = 20;
  p.period_max = 100;
  p.period_granularity = 5;
  p.global_resources = 2;
  p.global_sharing_prob = 1.0;
  p.cs_max = 6;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 677);
    const TaskSystem sys = generateWorkload(p, rng);
    expectSameSchedule(sys, 800, "overload seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace mpcp
