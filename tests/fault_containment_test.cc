// Containment-semantics tests: what the engine actually *does* with a
// FaultPlan under each policy. The headline golden trace pins the paper
// contract the watchdog must preserve: a force-released semaphore is
// handed to the highest-priority waiter (rule 7), unblocking it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/simulate.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "reference_parity.h"
#include "sim/reference.h"
#include "taskgen/generator.h"

namespace mpcp {
namespace {

using fault::ContainmentConfig;
using fault::FaultPlan;
using fault::MissAction;
using fault::parsePlan;

/// Three processors around one global semaphore. t_stuck (P0) grabs G at
/// t=1 and — under the stuck plan — never issues the V(). t_hi (P1) and
/// t_lo (P2) both request G at t=2; the period tie is broken by insertion
/// order, so the waiter priority order is t_hi > t_lo.
TaskSystem stuckHolderSystem() {
  TaskSystemBuilder b(3);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "t_stuck", .period = 1000, .processor = 0,
             .body = Body{}.compute(1).lock(g).compute(2).unlock(g)
                         .compute(1)});
  b.addTask({.name = "t_hi", .period = 1000, .processor = 1,
             .body = Body{}.compute(2).section(g, 1)});
  b.addTask({.name = "t_lo", .period = 1000, .processor = 2,
             .body = Body{}.compute(2).section(g, 1)});
  return std::move(b).build();
}

/// finish time per job, keyed (task, instance); -1 = unfinished.
std::map<std::pair<std::int32_t, std::int64_t>, Time> finishMap(
    const SimResult& r) {
  std::map<std::pair<std::int32_t, std::int64_t>, Time> m;
  for (const JobRecord& j : r.jobs) {
    m[{j.id.task.value(), j.id.instance}] = j.finish;
  }
  return m;
}

TEST(Containment, WatchdogUnblocksHighestPriorityWaiter) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan = parsePlan("stuck:t_stuck:0:G", sys);

  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  config.containment.holder_watchdog = 10;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  // The golden sequence: G acquired at t=1, watchdog fires after 10
  // ticks of residence, and the forced release hands off to t_hi's job
  // (the highest-priority waiter — paper rule 7), then t_lo's.
  const TraceEvent* forced = nullptr;
  const TraceEvent* first_handoff = nullptr;
  for (const TraceEvent& e : r.trace) {
    if (e.kind == Ev::kForcedRelease && forced == nullptr) forced = &e;
    if (e.kind == Ev::kHandoff && forced != nullptr &&
        first_handoff == nullptr) {
      first_handoff = &e;
    }
  }
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->t, 11);
  EXPECT_EQ(forced->job.task, TaskId(0));
  EXPECT_EQ(forced->resource, ResourceId(0));
  ASSERT_NE(first_handoff, nullptr);
  EXPECT_EQ(first_handoff->other.task, TaskId(1)) << "watchdog handoff must "
      "go to the highest-priority waiter";

  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({1, 0}), 0) << "t_hi unblocked";
  EXPECT_GT(finish.at({2, 0}), 0) << "t_lo unblocked";
  EXPECT_GT(finish.at({2, 0}), finish.at({1, 0}));
  EXPECT_EQ(r.counters.forced_releases, 1u);
  EXPECT_EQ(r.counters.faults_contained, 1u);
  EXPECT_GE(r.counters.faults_injected, 1u);
}

TEST(Containment, StuckHolderWithoutWatchdogStarvesWaiters) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan = parsePlan("stuck:t_stuck:0:G", sys);
  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);
  const auto finish = finishMap(r);
  EXPECT_EQ(finish.at({1, 0}), -1);
  EXPECT_EQ(finish.at({2, 0}), -1);
  EXPECT_EQ(r.counters.forced_releases, 0u);
}

TEST(Containment, BudgetEnforceKillsOverrunningGcs) {
  const TaskSystem sys = stuckHolderSystem();
  // t_stuck's section on G is declared as 2 ticks; stretch it 10x.
  const FaultPlan plan = parsePlan("cs:t_stuck:0:G:x10", sys);
  SimConfig config{.horizon = 100};
  config.fault_plan = &plan;
  config.containment.budget_enforce = true;
  config.containment.grace = 1.0;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);
  EXPECT_EQ(r.counters.budget_kills, 1u);
  EXPECT_GE(r.counters.faults_contained, 1u);
  // The kill releases G: both waiters complete well before the overrun
  // would have let them (t=1+20 at the earliest without enforcement).
  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({1, 0}), 0);
  EXPECT_GT(finish.at({2, 0}), 0);
  EXPECT_LT(finish.at({1, 0}), 21);
  // The overrunning job escapes its section and still finishes.
  EXPECT_GT(finish.at({0, 0}), 0);
}

TEST(Containment, JobAbortRetiresMissedJob) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 10, .processor = 0,
             .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();

  const FaultPlan plan = parsePlan("wcet:t:0:x10", sys);  // 4 -> 40 > D=10
  SimConfig config{.horizon = 60};
  config.fault_plan = &plan;
  config.containment.on_miss = MissAction::kAbortJob;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  EXPECT_EQ(r.counters.jobs_aborted, 1u);
  bool saw_aborted = false;
  for (const JobRecord& j : r.jobs) {
    if (j.id.instance == 0) {
      EXPECT_TRUE(j.missed);
      EXPECT_TRUE(j.aborted);
      EXPECT_EQ(j.finish, -1);
      saw_aborted = true;
    }
  }
  EXPECT_TRUE(saw_aborted);
  // Later (un-faulted) instances run normally after the abort frees P0.
  const auto finish = finishMap(r);
  EXPECT_GT(finish.at({0, 1}), 0);
}

TEST(Containment, SkipNextReleaseShedsLoad) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "t", .period = 10, .processor = 0,
             .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();

  const FaultPlan plan = parsePlan("wcet:t:0:x4", sys);  // 4 -> 16 > D=10
  SimConfig config{.horizon = 60};
  config.fault_plan = &plan;
  config.containment.on_miss = MissAction::kSkipNextRelease;
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, config);

  EXPECT_GE(r.counters.releases_skipped, 1u);
  bool saw_skip_event = false;
  for (const TraceEvent& e : r.trace) {
    saw_skip_event |= e.kind == Ev::kReleaseSkipped;
  }
  EXPECT_TRUE(saw_skip_event);
  EXPECT_GE(r.counters.misses_while_degraded, 1u);
}

TEST(Containment, InertPoliciesAreScheduleNeutral) {
  // budget-enforce with grace 1.0 and no fault plan must replay the
  // exact un-contained schedule: the budget equals the declared section
  // length, which a fault-free run never exceeds (V() fires the tick the
  // budget would).
  WorkloadParams params;
  params.processors = 3;
  params.tasks_per_processor = 3;
  params.global_resources = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const TaskSystem sys = generateWorkload(params, rng);

    const SimResult plain =
        simulate(ProtocolKind::kMpcp, sys, {.horizon = 3000});

    SimConfig inert{.horizon = 3000};
    inert.containment.budget_enforce = true;
    inert.containment.grace = 1.0;
    const SimResult budget = simulate(ProtocolKind::kMpcp, sys, inert);

    SimConfig none{.horizon = 3000};
    FaultPlan empty;
    none.fault_plan = &empty;
    const SimResult empty_plan = simulate(ProtocolKind::kMpcp, sys, none);

    EXPECT_EQ(finishMap(plain), finishMap(budget)) << "seed " << seed;
    EXPECT_EQ(finishMap(plain), finishMap(empty_plan)) << "seed " << seed;
    EXPECT_EQ(budget.counters.budget_kills, 0u);
    EXPECT_EQ(budget.counters.faults_contained, 0u);
  }
}

TEST(Containment, EngineMatchesReferenceUnderMirrorablePlan) {
  const TaskSystem sys = stuckHolderSystem();
  const FaultPlan plan =
      parsePlan("wcet:t_lo:*:x2,jitter:t_hi:0:+3,cs:t_stuck:*:G:x2", sys);
  ASSERT_TRUE(plan.mirrorable());

  const Time horizon = 800;
  SimConfig config{.horizon = horizon, .record_trace = false};
  config.fault_plan = &plan;
  testing::expectSameAsReference(
      sys, simulate(ProtocolKind::kMpcp, sys, config),
      simulateReference(ProtocolKind::kMpcp, sys, horizon, &plan),
      "mirrorable plan");
}

}  // namespace
}  // namespace mpcp
