// Edge cases across the engine and protocols: degenerate bodies, exact
// boundary timing, configuration limits, constrained deadlines.
#include <gtest/gtest.h>

#include "analysis/ceilings.h"
#include "core/protocol_factory.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "sim/engine.h"
#include "test_util.h"

namespace mpcp {
namespace {

using ::mpcp::testing::countEvents;
using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

TEST(EdgeCases, BodyStartingWithLock) {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  const TaskId a = b.addTask({.name = "a", .period = 20, .processor = 0,
                              .body = Body{}.lock(g).compute(2).unlock(g)});
  b.addTask({.name = "b", .period = 30, .processor = 1,
             .body = Body{}.lock(g).compute(3).unlock(g)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 60});
  EXPECT_EQ(finishOf(r, a, 0), 2);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(EdgeCases, FullUtilizationBackToBackJobs) {
  TaskSystemBuilder b(1);
  const TaskId t = b.addTask({.name = "t", .period = 5, .processor = 0,
                              .body = Body{}.compute(5)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys, {.horizon = 50});
  EXPECT_FALSE(r.any_deadline_miss);
  for (int k = 0; k < 9; ++k) {
    EXPECT_EQ(finishOf(r, t, k), (k + 1) * 5);
  }
}

TEST(EdgeCases, ConstrainedDeadlineMissDetected) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "tight", .period = 20, .relative_deadline = 5,
             .processor = 0, .body = Body{}.compute(4)});
  b.addTask({.name = "long", .period = 40, .relative_deadline = 40,
             .processor = 0, .body = Body{}.compute(10)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys, {.horizon = 80});
  // RM by period: "tight" has higher priority, so it always meets D=5.
  EXPECT_FALSE(r.any_deadline_miss);

  TaskSystemBuilder b2(1);
  b2.addTask({.name = "tight", .period = 40, .relative_deadline = 5,
              .processor = 0, .body = Body{}.compute(4)});
  b2.addTask({.name = "long", .period = 20, .processor = 0,
              .body = Body{}.compute(10)});
  const TaskSystem sys2 = std::move(b2).build();
  const SimResult r2 = simulate(ProtocolKind::kNone, sys2, {.horizon = 80});
  // Now "long" outranks "tight" (shorter period): tight misses D=5.
  EXPECT_TRUE(r2.any_deadline_miss);
}

TEST(EdgeCases, TraceRecordingOffStillProducesStats) {
  TaskSystemBuilder b(1);
  const TaskId t = b.addTask({.name = "t", .period = 10, .processor = 0,
                              .body = Body{}.compute(3)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys,
                               {.horizon = 50, .record_trace = false});
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.segments.empty());
  EXPECT_EQ(r.per_task[0].jobs_finished, 5);
  EXPECT_EQ(finishOf(r, t, 0), 3);
}

TEST(EdgeCases, JobCapAborts) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 1, .processor = 0,
             .body = Body{}.compute(1)});
  const TaskSystem sys = std::move(b).build();
  SimConfig config;
  config.horizon = 1'000;
  config.max_jobs = 10;
  EXPECT_THROW(simulate(ProtocolKind::kNone, sys, config), InvariantError);
}

TEST(EdgeCases, AutoHorizonCapsOnHugeHyperperiod) {
  TaskSystemBuilder b(1);
  // Coprime large periods: hyperperiod ~ 10^9, must be capped.
  b.addTask({.name = "a", .period = 99'991, .processor = 0,
             .body = Body{}.compute(1)});
  b.addTask({.name = "b", .period = 99'989, .processor = 0,
             .body = Body{}.compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys,
                               {.horizon_cap = 200'000});
  EXPECT_LE(r.horizon, 200'000);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(EdgeCases, EngineRunTwiceThrows) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 10, .processor = 0,
             .body = Body{}.compute(1)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  const auto protocol = makeProtocol(ProtocolKind::kMpcp, sys, tables);
  Engine engine(sys, *protocol, {.horizon = 20});
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), InvariantError);
}

TEST(EdgeCases, UncontendedGcsStillElevates) {
  // Rule 3 is unconditional: even with the semaphore free, the gcs runs
  // elevated, so a higher-priority local arrival cannot preempt it.
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  const TaskId hi = b.addTask({.name = "hi", .period = 50, .phase = 1,
                               .processor = 0, .body = Body{}.compute(2)});
  const TaskId lo = b.addTask({.name = "lo", .period = 100, .processor = 0,
                               .body = Body{}.section(g, 3).compute(1)});
  b.addTask({.name = "rem", .period = 200, .phase = 100, .processor = 1,
             .body = Body{}.section(g, 1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 40});
  // lo's gcs [0,3) is never contended, yet hi (arriving at 1) must wait.
  EXPECT_EQ(finishOf(r, hi, 0), 5);
  EXPECT_EQ(maxBlockedOf(r, hi), 2);
  (void)lo;
}

TEST(EdgeCases, TwoGlobalResourcesHaveIndependentQueues) {
  TaskSystemBuilder b(3);
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "h1", .period = 100, .processor = 0,
             .body = Body{}.section(g1, 10).compute(1)});
  b.addTask({.name = "h2", .period = 110, .processor = 1,
             .body = Body{}.section(g2, 10).compute(1)});
  const TaskId w1 = b.addTask({.name = "w1", .period = 50, .phase = 2,
                               .processor = 2,
                               .body = Body{}.section(g1, 1).compute(1)});
  const TaskId w2 = b.addTask({.name = "w2", .period = 60, .phase = 2,
                               .processor = 2,
                               .body = Body{}.section(g2, 1).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 60});
  // Both waiters blocked on *different* resources; each is released by
  // its own holder at t=10, independently.
  EXPECT_GT(finishOf(r, w1, 0), 10);
  EXPECT_GT(finishOf(r, w2, 0), 10);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(EdgeCases, SequentialRelockOfSameSemaphore) {
  TaskSystemBuilder b(1);
  const ResourceId s = b.addResource("S");
  const TaskId t = b.addTask({.name = "t", .period = 30, .processor = 0,
                              .body = Body{}.section(s, 2).compute(1)
                                         .section(s, 2).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kPcp, sys, {.horizon = 30});
  EXPECT_EQ(finishOf(r, t, 0), 6);
}

TEST(EdgeCases, DpcpSyncProcessorEqualsHostNoMigration) {
  TaskSystemBuilder b(2);
  const ResourceId s = b.addResource("S");
  const TaskId a = b.addTask({.name = "a", .period = 40, .processor = 0,
                              .body = Body{}.compute(1).section(s, 2)
                                         .compute(1)});
  b.addTask({.name = "c", .period = 60, .processor = 1,
             .body = Body{}.section(s, 1).compute(1)});
  b.assignSyncProcessor(s, ProcessorId(0));  // a's own host
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 100});
  EXPECT_EQ(countEvents(r, Ev::kMigrate, a), 0);  // migrate() no-ops
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(EdgeCases, IdenticalPhaseReleaseOrderIsDeterministicFcfs) {
  // Two same-period tasks released together on one processor: earlier
  // declaration = higher RM tie-break priority = runs first, every period.
  TaskSystemBuilder b(1);
  const TaskId first = b.addTask({.name = "first", .period = 10,
                                  .processor = 0,
                                  .body = Body{}.compute(2)});
  const TaskId second = b.addTask({.name = "second", .period = 10,
                                   .processor = 0,
                                   .body = Body{}.compute(2)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys, {.horizon = 50});
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(finishOf(r, first, k), k * 10 + 2);
    EXPECT_EQ(finishOf(r, second, k), k * 10 + 4);
  }
}

TEST(EdgeCases, WaiterQueuedAtExactReleaseInstant) {
  // w requests S at the same instant the holder releases it; the settle
  // loop must resolve the race deterministically (w is granted within
  // the same tick, one way or the other — never lost).
  TaskSystemBuilder b(2);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "holder", .period = 100, .processor = 0,
             .body = Body{}.section(s, 5).compute(1)});
  const TaskId w = b.addTask({.name = "w", .period = 50, .phase = 5,
                              .processor = 1,
                              .body = Body{}.section(s, 1).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 40});
  EXPECT_GE(finishOf(r, w, 0), 0);
  EXPECT_LE(finishOf(r, w, 0), 8);
  EXPECT_FALSE(r.any_deadline_miss);
}

}  // namespace
}  // namespace mpcp
