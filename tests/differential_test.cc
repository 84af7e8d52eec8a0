// Differential testing: the event-driven Engine under mpcp and dpcp
// against the independent tick-stepped reference implementation.
// Identical finish times and lock-path counters for every job across
// random workloads and the paper's examples — any divergence flags a
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

constexpr ProtocolKind kDpcp = ProtocolKind::kDpcp;

/// Small-period workloads for the O(horizon) oracle.
WorkloadParams smallWorkload() {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.5;
  p.period_min = 20;
  p.period_max = 200;
  p.period_granularity = 10;
  p.global_resources = 2;
  p.global_sharing_prob = 0.9;
  p.cs_min = 1;
  p.cs_max = 5;
  return p;
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
  const WorkloadParams p = smallWorkload();
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

TEST(DpcpReference, Examples1To3MatchReference) {
  using testing::expectMatchesReference;
  expectMatchesReference(kDpcp, paper::makeExample1(7).sys, 400, "example1");
  expectMatchesReference(kDpcp, paper::makeExample2(9).sys, 400, "example2");
  expectMatchesReference(kDpcp, paper::makeExample3().sys, 600, "example3");
}

TEST(DpcpReference, RandomWorkloadsMatchReference) {
  WorkloadParams p = smallWorkload();
  p.global_resources = 3;
  p.max_gcs_per_task = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 523);
    const TaskSystem sys = generateWorkload(p, rng);
    testing::expectMatchesReference(kDpcp, sys, 1'500,
                                    "seed " + std::to_string(seed));
  }
}

TEST(DpcpReference, SuspendingOverloadedWorkloadsMatchReference) {
  // Suspensions, local sections and a utilization past the cliff: agents,
  // local PCP and deadline misses all interleave.
  WorkloadParams p = smallWorkload();
  p.processors = 2;
  p.tasks_per_processor = 4;
  p.utilization_per_processor = 0.9;
  p.global_sharing_prob = 1.0;
  p.local_sharing_prob = 0.8;
  p.suspension_prob = 0.5;
  p.suspend_max = 8;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 733);
    const TaskSystem sys = generateWorkload(p, rng);
    testing::expectMatchesReference(kDpcp, sys, 1'000,
                                    "susp seed " + std::to_string(seed));
  }
}

TEST(DpcpReference, DedicatedSyncProcessorMatchesReference) {
  // Both semaphores live on P2, which also hosts a task of its own: agents
  // preempt each other by ceiling and preempt P2's local work, while the
  // hosts run their lower-priority jobs meanwhile.
  TaskSystemBuilder b(3);
  const ResourceId hot = b.addResource("HOT");
  const ResourceId cold = b.addResource("COLD");
  const ResourceId loc = b.addResource("L0");
  b.addTask({.name = "hi", .period = 40, .phase = 2, .processor = 0,
             .body = Body{}.compute(1).section(hot, 2).compute(1)});
  b.addTask({.name = "lo", .period = 90, .processor = 1,
             .body = Body{}.compute(1).section(cold, 6).compute(1)});
  b.addTask({.name = "u1", .period = 50, .phase = 3, .processor = 1,
             .body = Body{}.section(hot, 1).compute(2)});
  b.addTask({.name = "u2", .period = 60, .processor = 0,
             .body = Body{}.section(loc, 2).section(cold, 1).compute(3)});
  b.addTask({.name = "l0", .period = 70, .processor = 0,
             .body = Body{}.compute(2).section(loc, 3).compute(1)});
  b.addTask({.name = "p2", .period = 30, .processor = 2,
             .body = Body{}.compute(4)});
  b.assignSyncProcessor(hot, ProcessorId(2));
  b.assignSyncProcessor(cold, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  testing::expectMatchesReference(kDpcp, sys, 1'260, "dedicated P2");
}

TEST(DpcpReference, RejectsNestedGlobalSections) {
  TaskSystemBuilder b(3, {.allow_nested_global = true});
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "a", .period = 60, .processor = 0,
             .body = Body{}.lock(g1).section(g2, 1).unlock(g1).compute(1)});
  b.addTask({.name = "b", .period = 70, .processor = 1,
             .body = Body{}.section(g1, 1).section(g2, 1)});
  const TaskSystem sys = std::move(b).build();
  EXPECT_THROW((void)simulateReference(ProtocolKind::kDpcp, sys, 100),
               ConfigError);
}

}  // namespace
}  // namespace mpcp
