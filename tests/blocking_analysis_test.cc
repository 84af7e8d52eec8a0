// Section 5.1 blocking factors — hand-computed expectations on crafted
// systems, one scenario per factor.
#include <gtest/gtest.h>

#include "analysis/ceilings.h"
#include "core/hybrid_blocking.h"
#include "model/task_system.h"

namespace mpcp {
namespace {

using enum BlockingFactor;

// Four tasks, two processors, one local + one global semaphore.
//   tau1 (P0, T=40, prio 4): c1, [L1:1], [G1:2], c1          NG=1
//   tau3 (P1, T=50, prio 3): c1, [G1:3], c1                  NG=1
//   tau2 (P0, T=60, prio 2): c1, [L1:3], [G1:4], c1          NG=1
//   tau4 (P1, T=70, prio 1): c1, [G1:5], c1                  NG=1
struct FactorRig {
  TaskId t1, t2, t3, t4;
  ResourceId l1, g1;
  TaskSystem sys;
};

FactorRig makeFactorRig() {
  FactorRig f;
  TaskSystemBuilder b(2);
  f.l1 = b.addResource("L1");
  f.g1 = b.addResource("G1");
  f.t1 = b.addTask({.name = "tau1", .period = 40, .processor = 0,
                    .body = Body{}.compute(1).section(f.l1, 1)
                               .section(f.g1, 2).compute(1)});
  f.t3 = b.addTask({.name = "tau3", .period = 50, .processor = 1,
                    .body = Body{}.compute(1).section(f.g1, 3).compute(1)});
  f.t2 = b.addTask({.name = "tau2", .period = 60, .processor = 0,
                    .body = Body{}.compute(1).section(f.l1, 3)
                               .section(f.g1, 4).compute(1)});
  f.t4 = b.addTask({.name = "tau4", .period = 70, .processor = 1,
                    .body = Body{}.compute(1).section(f.g1, 5).compute(1)});
  f.sys = std::move(b).build();
  return f;
}

TEST(MpcpBlocking, FactorsForHighestPriorityTask) {
  const FactorRig f = makeFactorRig();
  const PriorityTables tables(f.sys);
  const MpcpBlockingAnalysis analysis(f.sys, tables,
                                      {.include_deferred_execution = false});
  const BlockingBreakdown& b =
      analysis.blocking(f.t1);
  // F1: tau2's L1 section (ceiling = prio(tau1) >= prio(tau1)), dur 3,
  //     times (NG+1) = 2 -> 6.
  EXPECT_EQ(b[kLocalLowerCs], 6);
  // F2: one lower-priority REMOTE gcs per access on G1: max(tau3: 3,
  //     tau4: 5) = 5 (tau2 is local -> F5's business).
  EXPECT_EQ(b[kLowerGcsQueue], 5);
  // F3: no higher-priority tasks exist.
  EXPECT_EQ(b[kHigherGcsRemote], 0);
  // F4: on blocking processor P1, every gcs priority equals
  //     P_G + prio(tau1); nothing exceeds the blockers.
  EXPECT_EQ(b[kBlockingProcGcs], 0);
  // F5: tau2 (local, lower, NG=1): min(NG_1+1, 2*NG_2) = min(2,2) = 2
  //     sections of maxGcs(tau2) = 4 -> 8.
  EXPECT_EQ(b[kLocalLowerGcs], 8);
  EXPECT_EQ(b[kDeferredExecution], 0);
  EXPECT_EQ(b.total(), 19);
}

TEST(MpcpBlocking, FactorsForMidPriorityLocalTask) {
  const FactorRig f = makeFactorRig();
  const PriorityTables tables(f.sys);
  const MpcpBlockingAnalysis analysis(f.sys, tables);
  const BlockingBreakdown& b = analysis.blocking(f.t2);
  // F1: no lower-priority task on P0.
  EXPECT_EQ(b[kLocalLowerCs], 0);
  // F2: lower-priority remote on G1: tau4 (5).
  EXPECT_EQ(b[kLowerGcsQueue], 5);
  // F3: higher-priority remote sharing G1: tau3, dur 3,
  //     ceil(60/50) = 2 -> 6. (tau1 is local: normal preemption.)
  EXPECT_EQ(b[kHigherGcsRemote], 6);
  EXPECT_EQ(b[kBlockingProcGcs], 0);
  // F5: no lower-priority local task.
  EXPECT_EQ(b[kLocalLowerGcs], 0);
  // Deferred execution: tau1 is local, higher priority, suspends (NG=1):
  // charge C_1 = 5.
  EXPECT_EQ(b[kDeferredExecution], 5);
  EXPECT_EQ(b.total(), 16);
}

TEST(MpcpBlocking, Factor4ChargesHigherGcsPriorityOnBlockingProcessor) {
  // tau_top (P2) makes G_high's gcs priority on P1 exceed G_low's, so
  // tau_x's gcs can delay tau_mid through its direct blocker tau_lo.
  TaskSystemBuilder b(3);
  const ResourceId g_low = b.addResource("G_low");
  const ResourceId g_high = b.addResource("G_high");
  b.addTask({.name = "top", .period = 30, .processor = 2,
             .body = Body{}.compute(1).section(g_high, 1).compute(1)});
  const TaskId mid = b.addTask(
      {.name = "mid", .period = 40, .processor = 0,
       .body = Body{}.compute(1).section(g_low, 1).compute(1)});
  b.addTask({.name = "x", .period = 50, .processor = 1,
             .body = Body{}.compute(1).section(g_high, 2).compute(1)});
  b.addTask({.name = "lo", .period = 60, .processor = 1,
             .body = Body{}.compute(1).section(g_low, 4).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  const MpcpBlockingAnalysis analysis(sys, tables);
  const BlockingBreakdown& bm = analysis.blocking(mid);
  EXPECT_EQ(bm[kLowerGcsQueue], 4);      // tau_lo's G_low section
  // tau_x's G_high gcs (P_G + prio(top)) outranks the blocker
  // (P_G + prio(mid)): ceil(40/50) = 1 execution of 2 ticks.
  EXPECT_EQ(bm[kBlockingProcGcs], 2);
}

TEST(MpcpBlocking, PaperLiteralFactor5IsNeverTighter) {
  const FactorRig f = makeFactorRig();
  const PriorityTables tables(f.sys);
  const MpcpBlockingAnalysis tight(f.sys, tables,
                                   {.paper_literal_factor5 = false});
  const MpcpBlockingAnalysis literal(f.sys, tables,
                                     {.paper_literal_factor5 = true});
  for (const Task& t : f.sys.tasks()) {
    EXPECT_LE(tight.blocking(t.id)[kLocalLowerGcs],
              literal.blocking(t.id)[kLocalLowerGcs])
        << t.name;
  }
}

TEST(MpcpBlocking, IndependentTasksHaveZeroBlocking) {
  TaskSystemBuilder b(2);
  b.addTask({.name = "a", .period = 10, .processor = 0,
             .body = Body{}.compute(2)});
  b.addTask({.name = "b", .period = 20, .processor = 1,
             .body = Body{}.compute(3)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  const MpcpBlockingAnalysis analysis(sys, tables);
  for (const Task& t : sys.tasks()) {
    EXPECT_EQ(analysis.blocking(t.id).total(), 0) << t.name;
  }
}

TEST(MpcpBlocking, FactorsIndependentOfNonCriticalWcet) {
  // Stretching non-critical compute must leave factors F1..F5 unchanged
  // (the deferred-execution term legitimately grows with C_j).
  auto build = [](Duration stretch) {
    TaskSystemBuilder b(2);
    const ResourceId g = b.addResource("G");
    b.addTask({.name = "a", .period = 400, .processor = 0,
               .body = Body{}.compute(1).section(g, 3).compute(stretch)});
    b.addTask({.name = "b", .period = 600, .processor = 1,
               .body = Body{}.compute(1).section(g, 5).compute(stretch)});
    return std::move(b).build();
  };
  const TaskSystem s1 = build(1);
  const TaskSystem s2 = build(50);
  const PriorityTables t1(s1), t2(s2);
  const MpcpBlockingAnalysis a1(s1, t1, {.include_deferred_execution = false});
  const MpcpBlockingAnalysis a2(s2, t2, {.include_deferred_execution = false});
  for (const Task& t : s1.tasks()) {
    EXPECT_EQ(a1.blocking(t.id).total(), a2.blocking(t.id).total()) << t.name;
  }
}

TEST(MpcpBlocking, HigherPriorityLocalGcsNotCharged) {
  // tau_hi's gcs's on the same processor are normal preemption, never a
  // blocking factor for tau_lo... except through deferred execution.
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "hi", .period = 40, .processor = 0,
             .body = Body{}.compute(1).section(g, 3).compute(1)});
  const TaskId lo = b.addTask({.name = "lo", .period = 90, .processor = 0,
                               .body = Body{}.compute(5)});
  b.addTask({.name = "rem", .period = 60, .processor = 1,
             .body = Body{}.compute(1).section(g, 2).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  const MpcpBlockingAnalysis no_def(sys, tables,
                                    {.include_deferred_execution = false});
  // lo uses no semaphore: only F5-style interference could apply, but hi
  // is *higher* priority, so nothing is charged.
  EXPECT_EQ(no_def.blocking(lo).total(), 0);
  const MpcpBlockingAnalysis with_def(sys, tables);
  EXPECT_EQ(with_def.blocking(lo)[kDeferredExecution], 5);  // C_hi = 5
}

}  // namespace
}  // namespace mpcp
