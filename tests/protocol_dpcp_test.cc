// Message-based (distributed) priority ceiling protocol behaviour.
#include <gtest/gtest.h>

#include "analysis/ceilings.h"
#include "core/analyzer.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "test_util.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

using ::mpcp::testing::countEvents;
using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

TEST(Dpcp, GcsExecutesOnSyncProcessor) {
  // S is bound to P2 (a dedicated sync processor); tasks on P0/P1 using S
  // must migrate their critical sections there.
  TaskSystemBuilder b(3);
  const ResourceId s = b.addResource("S");
  const TaskId a = b.addTask({.name = "a", .period = 50, .processor = 0,
                              .body = Body{}.compute(1).section(s, 2)
                                         .compute(1)});
  const TaskId c = b.addTask({.name = "c", .period = 70, .processor = 1,
                              .body = Body{}.compute(2).section(s, 2)
                                         .compute(1)});
  b.assignSyncProcessor(s, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 60});
  EXPECT_GE(countEvents(r, Ev::kMigrate, a), 2);  // to P2 and back
  EXPECT_GE(countEvents(r, Ev::kMigrate, c), 2);
  // All gcs-mode execution happens on P2.
  for (const ExecSegment& seg : r.segments) {
    if (seg.mode == ExecMode::kGcs) {
      EXPECT_EQ(seg.processor.value(), 2);
    }
  }
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(Dpcp, HostProcessorFreeDuringRemoteGcs) {
  // While a's critical section runs on the sync processor, a lower-
  // priority local task must be able to use P0.
  TaskSystemBuilder b(2);
  const ResourceId s = b.addResource("S");
  const TaskId a = b.addTask({.name = "a", .period = 50, .processor = 0,
                              .body = Body{}.compute(1).section(s, 4)
                                         .compute(1)});
  const TaskId local_lo = b.addTask({.name = "local_lo", .period = 100,
                                     .processor = 0,
                                     .body = Body{}.compute(4)});
  const TaskId rem = b.addTask({.name = "rem", .period = 80, .phase = 30,
                                .processor = 1,
                                .body = Body{}.section(s, 1).compute(1)});
  b.assignSyncProcessor(s, ProcessorId(1));
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 60});
  // a computes 0..1, migrates to P1 for [1,5), final tick on P0 at 5.
  // local_lo uses P0 during [1,5): finishes at 5.
  EXPECT_EQ(finishOf(r, local_lo, 0), 5);
  EXPECT_EQ(finishOf(r, a, 0), 6);
  (void)rem;
}

TEST(Dpcp, AgentsPreemptBySemaphoreCeiling) {
  // Two resources homed on P2: the one used by the higher-priority task
  // has the higher ceiling, so its agent preempts the other's.
  TaskSystemBuilder b(3);
  const ResourceId s_hot = b.addResource("HOT");
  const ResourceId s_cold = b.addResource("COLD");
  const TaskId hi = b.addTask({.name = "hi", .period = 40, .phase = 2,
                               .processor = 0,
                               .body = Body{}.compute(1).section(s_hot, 2)
                                          .compute(1)});
  const TaskId lo = b.addTask({.name = "lo", .period = 90, .processor = 1,
                               .body = Body{}.compute(1).section(s_cold, 6)
                                          .compute(1)});
  // Extra users so both resources are global.
  b.addTask({.name = "u1", .period = 100, .phase = 50, .processor = 1,
             .body = Body{}.section(s_hot, 1)});
  b.addTask({.name = "u2", .period = 110, .phase = 50, .processor = 0,
             .body = Body{}.section(s_cold, 1)});
  b.assignSyncProcessor(s_hot, ProcessorId(2));
  b.assignSyncProcessor(s_cold, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  ASSERT_GT(tables.ceiling(s_hot), tables.ceiling(s_cold));
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 60});
  // lo's agent occupies P2 from t=1. hi's agent arrives at t=3 with the
  // higher ceiling and must preempt: hi's cs runs [3,5), so hi finishes
  // at 6 instead of waiting out lo's 6-tick section.
  EXPECT_EQ(finishOf(r, hi, 0), 6);
  EXPECT_GE(countEvents(r, Ev::kPreempt, lo), 1);
}

TEST(Dpcp, QueueServedInPriorityOrder) {
  TaskSystemBuilder b(4);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "holder", .period = 200, .processor = 0,
             .body = Body{}.section(s, 10)});
  const TaskId lo = b.addTask({.name = "lo", .period = 150, .phase = 2,
                               .processor = 1,
                               .body = Body{}.section(s, 1).compute(1)});
  const TaskId hi = b.addTask({.name = "hi", .period = 50, .phase = 6,
                               .processor = 2,
                               .body = Body{}.section(s, 1).compute(1)});
  b.addTask({.name = "spare", .period = 300, .phase = 200, .processor = 3,
             .body = Body{}.section(s, 1)});
  b.assignSyncProcessor(s, ProcessorId(3));
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 50});
  EXPECT_LT(finishOf(r, hi, 0), finishOf(r, lo, 0));
  const InvariantReport rep = checkPriorityOrderedHandoff(sys, r);
  EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

TEST(Dpcp, DefaultSyncProcessorIsLowestUserProcessor) {
  TaskSystemBuilder b(3);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "a", .period = 50, .processor = 2,
             .body = Body{}.section(s, 1)});
  b.addTask({.name = "b", .period = 60, .processor = 1,
             .body = Body{}.section(s, 1)});
  const TaskSystem sys = std::move(b).build();
  ASSERT_TRUE(sys.resource(s).sync_processor.has_value());
  EXPECT_EQ(sys.resource(s).sync_processor->value(), 1);
}

TEST(Dpcp, NestedGlobalAllowedOnSameSyncProcessor) {
  TaskSystemBuilder b(3, {.allow_nested_global = true});
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  const TaskId a = b.addTask(
      {.name = "a", .period = 60, .processor = 0,
       .body = Body{}.compute(1).lock(g1).compute(1).section(g2, 1)
                  .compute(1).unlock(g1).compute(1)});
  b.addTask({.name = "b", .period = 70, .phase = 20, .processor = 1,
             .body = Body{}.section(g1, 1).section(g2, 1).compute(1)});
  b.assignSyncProcessor(g1, ProcessorId(2));
  b.assignSyncProcessor(g2, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 300});
  EXPECT_GT(finishOf(r, a, 0), 0);
  EXPECT_FALSE(r.any_deadline_miss);
  const InvariantReport rep = checkMutualExclusion(sys, r);
  EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

TEST(Dpcp, NestedGlobalAcrossSyncProcessorsRejected) {
  TaskSystemBuilder b(3, {.allow_nested_global = true});
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "a", .period = 60, .processor = 0,
             .body = Body{}.lock(g1).section(g2, 1).unlock(g1).compute(1)});
  b.addTask({.name = "b", .period = 70, .processor = 1,
             .body = Body{}.section(g1, 1).section(g2, 1)});
  b.assignSyncProcessor(g1, ProcessorId(1));
  b.assignSyncProcessor(g2, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  EXPECT_THROW(simulate(ProtocolKind::kDpcp, sys, {.horizon = 10}),
               ConfigError);
}

/// Nested message-based sections on one sync processor: `a` takes G2
/// (ceiling 9) inside G1 (ceiling 11) while a ceiling-10 agent for G3
/// waits on P2.
TaskSystem nestedBelowOuterCeiling() {
  TaskSystemBuilder b(3, {.allow_nested_global = true});
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  const ResourceId g3 = b.addResource("G3");
  b.addTask({.name = "h", .period = 40, .phase = 3, .processor = 1,
             .body = Body{}.section(g1, 1).compute(1)});
  b.addTask({.name = "a", .period = 200, .processor = 0,
             .body = Body{}.compute(1).lock(g1).compute(1).section(g2, 10)
                        .compute(1).unlock(g1).compute(1)});
  b.addTask({.name = "m", .period = 60, .phase = 4, .processor = 1,
             .body = Body{}.section(g3, 5).compute(1)});
  b.addTask({.name = "bb", .period = 300, .phase = 150, .processor = 1,
             .body = Body{}.section(g2, 1).compute(1)});
  b.addTask({.name = "z", .period = 400, .phase = 300, .processor = 0,
             .body = Body{}.section(g3, 1).compute(1)});
  for (const ResourceId g : {g1, g2, g3}) {
    b.assignSyncProcessor(g, ProcessorId(2));
  }
  return std::move(b).build();
}

TEST(Dpcp, GcsEntriesUseTheFullCeiling) {
  // Under the message-based protocol every gcs runs at the semaphore's
  // global priority ceiling (Section 4.4 quoting [8]); a nested entry
  // keeps the highest ceiling among the job's open sections.
  TaskSystemBuilder b(3);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "a", .period = 50, .processor = 0,
             .body = Body{}.compute(1).section(s, 2).compute(1)});
  b.addTask({.name = "c", .period = 70, .processor = 1,
             .body = Body{}.compute(2).section(s, 2).compute(1)});
  b.assignSyncProcessor(s, ProcessorId(2));
  const TaskSystem flat = std::move(b).build();
  const TaskSystem nested = nestedBelowOuterCeiling();
  for (const TaskSystem* sys : {&flat, &nested}) {
    const SimResult r = simulate(ProtocolKind::kDpcp, *sys, {.horizon = 1000});
    const PriorityTables tables(*sys);
    const InvariantReport rep = checkGcsPriorityAssignment(
        *sys, r, tables, GcsPriorityRule::kMessageBased);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
  }
}

TEST(Dpcp, NestedGrantKeepsTheOuterCeiling) {
  // Granting the inner G2 must not drop `a` from G1's ceiling (11) to
  // G2's (9): at 9 the ceiling-10 agent of `m` would preempt `a` while
  // it still holds G1, and `h`, queued on G1, would wait out m's section
  // too — past its analytical bound.
  const TaskSystem sys = nestedBelowOuterCeiling();
  const PriorityTables tables(sys);
  const ResourceId g1(0), g2(1), g3(2);
  ASSERT_EQ(tables.ceiling(g1), Priority(11));
  ASSERT_EQ(tables.ceiling(g2), Priority(9));
  ASSERT_EQ(tables.ceiling(g3), Priority(10));
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 200});
  const TaskId a(1), h(0);
  int inner_entries = 0;
  for (const TraceEvent& e : r.trace) {
    if (e.kind != Ev::kGcsEnter || e.job.task != a || e.resource != g2) {
      continue;
    }
    ++inner_entries;
    EXPECT_EQ(e.priority, Priority(11)) << "t=" << e.t;
  }
  EXPECT_EQ(inner_entries, 1);
  const ProtocolAnalysis analysis = analyzeUnder(ProtocolKind::kDpcp, sys);
  const Duration bound = analysis.blocking[static_cast<std::size_t>(h.value())];
  EXPECT_EQ(bound, 12);
  EXPECT_LE(maxBlockedOf(r, h), bound);
}

TEST(Dpcp, MutualExclusionUnderContention) {
  TaskSystemBuilder b(3);
  const ResourceId s1 = b.addResource("S1");
  const ResourceId s2 = b.addResource("S2");
  b.addTask({.name = "a", .period = 7, .processor = 0,
             .body = Body{}.section(s1, 1).section(s2, 1).compute(1)});
  b.addTask({.name = "b", .period = 11, .processor = 1,
             .body = Body{}.section(s2, 2).section(s1, 1).compute(1)});
  b.addTask({.name = "c", .period = 13, .processor = 2,
             .body = Body{}.section(s1, 2).compute(1).section(s2, 1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 2000});
  const InvariantReport rep = checkMutualExclusion(sys, r);
  EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

}  // namespace
}  // namespace mpcp
