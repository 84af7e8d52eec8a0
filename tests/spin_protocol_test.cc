// Spin-lock protocols (ISSUE 8): MSRP-style non-preemptive FIFO spinning
// ("spin-fifo") and priority-ordered spinning ("spin-prio"). Golden
// hand-checked 2-processor schedules, the FIFO-vs-priority grant-order
// difference, the never-yields contract (nothing else runs on a
// spinner's processor), engine-vs-reference differentials, analysis
// soundness on the golden scenario, and flat-section enforcement.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/analyzer.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "reference_parity.h"
#include "sim/reference.h"
#include "taskgen/generator.h"
#include "test_util.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

using ::mpcp::testing::countEvents;
using ::mpcp::testing::expectMatchesReference;
using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

// --- Golden scenario: 2 processors, one global resource --------------
// tauB (P1) holds S [1,5); tauA (P0, high) requests at t=2 and spins
// until the handoff; tauC (P0, low) must not run during the spin.
struct Golden {
  TaskId a, b, c;
  ResourceId s;
  TaskSystem sys;
};

Golden makeGolden() {
  Golden g;
  TaskSystemBuilder bld(2);
  g.s = bld.addResource("S");
  g.a = bld.addTask({.name = "tauA", .period = 100, .phase = 1,
                     .processor = 0,
                     .body = Body{}.compute(1).section(g.s, 2).compute(1)});
  g.b = bld.addTask({.name = "tauB", .period = 200, .processor = 1,
                     .body = Body{}.compute(1).section(g.s, 4).compute(1)});
  g.c = bld.addTask({.name = "tauC", .period = 400, .processor = 0,
                     .body = Body{}.compute(10)});
  g.sys = std::move(bld).build();
  return g;
}

void expectGoldenSchedule(ProtocolKind kind) {
  const Golden g = makeGolden();
  const SimResult r = simulate(kind, g.sys, {.horizon = 100});
  // tauB: compute [0,1), cs [1,5), compute [5,6).
  EXPECT_EQ(finishOf(r, g.b), 6) << toString(kind);
  // tauA: compute [1,2), spin [2,5), cs [5,7), compute [7,8).
  EXPECT_EQ(finishOf(r, g.a), 8) << toString(kind);
  EXPECT_EQ(maxBlockedOf(r, g.a), 3)
      << toString(kind) << ": spin time is blocking time";
  // Never-yields: tauC ran [0,1), then NOTHING else may use P0 until
  // tauA finishes at 8 — the spin is non-preemptive busy-waiting, so
  // tauC resumes at 8 and finishes its remaining 9 ticks at 17. If the
  // spinner yielded the processor, tauC would finish earlier.
  EXPECT_EQ(finishOf(r, g.c), 17) << toString(kind);
  // Contention is visible in the trace: one wait, one handoff, and a
  // grant for each of the two acquisitions of S.
  EXPECT_EQ(countEvents(r, Ev::kLockWait, g.a), 1) << toString(kind);
  EXPECT_EQ(countEvents(r, Ev::kLockGrant, g.a), 1) << toString(kind);
  EXPECT_EQ(countEvents(r, Ev::kHandoff), 1) << toString(kind);
  EXPECT_TRUE(checkMutualExclusion(g.sys, r).ok()) << toString(kind);
  EXPECT_FALSE(r.any_deadline_miss) << toString(kind);
}

TEST(Spin, GoldenScheduleFifo) { expectGoldenSchedule(ProtocolKind::kSpinFifo); }
TEST(Spin, GoldenSchedulePrio) { expectGoldenSchedule(ProtocolKind::kSpinPrio); }

TEST(Spin, GoldenBlockingBoundIsSound) {
  const Golden g = makeGolden();
  for (const ProtocolKind kind :
       {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
    const ProtocolAnalysis analysis = analyzeUnder(kind, g.sys);
    const SimResult r = simulate(kind, g.sys, {.horizon = 2'000});
    // tauA observes 3 ticks of spin; the bound (remote max cs = 4, plus
    // arrival blocking) must dominate it.
    EXPECT_GE(analysis.blocking[0], maxBlockedOf(r, g.a)) << toString(kind);
    EXPECT_FALSE(r.any_deadline_miss) << toString(kind);
  }
}

// --- Grant order: FIFO vs priority -----------------------------------
// Two spinners from different processors queue behind a long holder;
// arrival order is lo-then-hi, priority order is hi-then-lo.
struct ThreeWay {
  TaskId holder, hi, lo;
  ResourceId s;
  TaskSystem sys;
};

ThreeWay makeThreeWay() {
  ThreeWay w;
  TaskSystemBuilder bld(3);
  w.s = bld.addResource("S");
  w.holder =
      bld.addTask({.name = "hold", .period = 1000, .processor = 0,
                   .body = Body{}.compute(1).section(w.s, 10).compute(1)});
  w.hi = bld.addTask({.name = "hi", .period = 100, .phase = 3,
                      .processor = 1,
                      .body = Body{}.compute(1).section(w.s, 5).compute(1)});
  w.lo = bld.addTask({.name = "lo", .period = 400, .phase = 1,
                      .processor = 2,
                      .body = Body{}.compute(1).section(w.s, 5).compute(1)});
  w.sys = std::move(bld).build();
  return w;
}

TEST(Spin, FifoGrantsInArrivalOrder) {
  const ThreeWay w = makeThreeWay();
  // lo enqueues at t=2, hi at t=4; the holder releases at 11. FIFO
  // serves lo first: lo cs [11,16) -> finish 17; hi cs [16,21) -> 22.
  const SimResult r = simulate(ProtocolKind::kSpinFifo, w.sys, {.horizon = 60});
  EXPECT_EQ(finishOf(r, w.lo), 17);
  EXPECT_EQ(finishOf(r, w.hi), 22);
}

TEST(Spin, PriorityGrantsHighestFirst) {
  const ThreeWay w = makeThreeWay();
  // Same claims, priority-ordered grant: hi jumps the queue despite
  // arriving second. hi cs [11,16) -> finish 17; lo cs [16,21) -> 22.
  const SimResult r = simulate(ProtocolKind::kSpinPrio, w.sys, {.horizon = 60});
  EXPECT_EQ(finishOf(r, w.hi), 17);
  EXPECT_EQ(finishOf(r, w.lo), 22);
}

// --- Engine vs independent tick-stepped reference --------------------

TEST(Spin, GoldenScenariosMatchReference) {
  for (const ProtocolKind kind :
       {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
    expectMatchesReference(kind, makeGolden().sys, 400, "golden");
    expectMatchesReference(kind, makeThreeWay().sys, 400, "three-way");
  }
}

TEST(Spin, RandomWorkloadsMatchReference) {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.5;
  p.period_min = 20;
  p.period_max = 200;  // small periods: the O(horizon) oracle is slow
  p.period_granularity = 10;
  p.global_resources = 2;
  p.global_sharing_prob = 0.9;
  p.cs_min = 1;
  p.cs_max = 5;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 733);
    const TaskSystem sys = generateWorkload(p, rng);
    for (const ProtocolKind kind :
         {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
      expectMatchesReference(kind, sys, 1'200, "seed " + std::to_string(seed));
    }
  }
}

TEST(Spin, SuspendingWorkloadsMatchReference) {
  // Voluntary suspensions outside critical sections are legal under the
  // spin protocols (only blocked-on-lock waiting must busy-wait).
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
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 547);
    const TaskSystem sys = generateWorkload(p, rng);
    for (const ProtocolKind kind :
         {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
      expectMatchesReference(kind, sys, 1'000,
                             "susp seed " + std::to_string(seed));
    }
  }
}

// --- Flat sections only ----------------------------------------------

TEST(Spin, NestedSectionsAreRejected) {
  TaskSystemBuilder bld(1, {.allow_nested_global = true});
  const ResourceId s1 = bld.addResource("S1");
  const ResourceId s2 = bld.addResource("S2");
  bld.addTask({.name = "nest", .period = 100, .processor = 0,
               .body = Body{}
                           .compute(1)
                           .lock(s1)
                           .compute(1)
                           .lock(s2)
                           .compute(1)
                           .unlock(s2)
                           .unlock(s1)});
  const TaskSystem sys = std::move(bld).build();
  EXPECT_THROW(simulate(ProtocolKind::kSpinFifo, sys, {.horizon = 50}),
               ConfigError);
  EXPECT_THROW(simulate(ProtocolKind::kSpinPrio, sys, {.horizon = 50}),
               ConfigError);
  EXPECT_THROW(simulateReference(ProtocolKind::kSpinFifo, sys, 50),
               ConfigError);
  EXPECT_THROW(simulateReference(ProtocolKind::kSpinPrio, sys, 50),
               ConfigError);
}

}  // namespace
}  // namespace mpcp
