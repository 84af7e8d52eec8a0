// Uniprocessor Priority Ceiling Protocol properties [10]: deadlock
// avoidance, blocked-at-most-once, ceiling blocking, inheritance.
#include <gtest/gtest.h>

#include "analysis/blocking_pcp.h"
#include "analysis/ceilings.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "test_util.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

/// The classic crossed-locks pair: tau_hi takes S1 then S2 nested;
/// tau_lo takes S2 then S1 nested. Plain semaphores deadlock; PCP must not.
struct CrossedLocks {
  TaskId hi, lo;
  ResourceId s1, s2;
  TaskSystem sys;
};

CrossedLocks makeCrossedLocks() {
  CrossedLocks c;
  TaskSystemBuilder b(1, {.allow_nested_global = true});  // nesting is local
  c.s1 = b.addResource("S1");
  c.s2 = b.addResource("S2");
  c.hi = b.addTask({.name = "hi", .period = 50, .phase = 2, .processor = 0,
                    .body = Body{}
                                .compute(1)
                                .lock(c.s1)
                                .compute(2)
                                .lock(c.s2)
                                .compute(2)
                                .unlock(c.s2)
                                .unlock(c.s1)
                                .compute(1)});
  c.lo = b.addTask({.name = "lo", .period = 100, .processor = 0,
                    .body = Body{}
                                .compute(1)
                                .lock(c.s2)
                                .compute(2)
                                .lock(c.s1)
                                .compute(2)
                                .unlock(c.s1)
                                .unlock(c.s2)
                                .compute(1)});
  c.sys = std::move(b).build();
  return c;
}

TEST(Pcp, PlainSemaphoresDeadlockOnCrossedLocks) {
  const CrossedLocks c = makeCrossedLocks();
  const SimResult r = simulate(ProtocolKind::kNone, c.sys, {.horizon = 100});
  // hi locks S1 at t=3, requests S2 at t=5 (lo holds it since t=2);
  // lo resumes, requests S1 at t=7 -> deadlock: neither finishes.
  EXPECT_EQ(finishOf(r, c.hi, 0), -1);
  EXPECT_EQ(finishOf(r, c.lo, 0), -1);
  EXPECT_TRUE(r.any_deadline_miss);
}

TEST(Pcp, AvoidsDeadlockOnCrossedLocks) {
  const CrossedLocks c = makeCrossedLocks();
  const SimResult r = simulate(ProtocolKind::kPcp, c.sys, {.horizon = 100});
  // Ceiling of S2 is hi's priority, so hi's request for S1 at t=3 is
  // DENIED while lo holds S2 -> lo finishes both sections, then hi runs.
  EXPECT_GT(finishOf(r, c.hi, 0), 0);
  EXPECT_GT(finishOf(r, c.lo, 0), 0);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(Pcp, CeilingBlockingEvenOnFreeSemaphore) {
  // tau_m requests free S2 while tau_lo holds S1 whose ceiling is P_hi
  // >= P_m: the request must be denied (this is what prevents multiple
  // blocking). tau_hi exists only to raise S1's ceiling.
  TaskSystemBuilder b(1);
  const ResourceId s1 = b.addResource("S1");
  const ResourceId s2 = b.addResource("S2");
  const TaskId hi = b.addTask({.name = "hi", .period = 50, .phase = 20,
                               .processor = 0,
                               .body = Body{}.section(s1, 1)});
  const TaskId mid = b.addTask({.name = "mid", .period = 70, .phase = 2,
                                .processor = 0,
                                .body = Body{}.compute(1).section(s2, 2)});
  const TaskId lo = b.addTask({.name = "lo", .period = 100, .processor = 0,
                               .body = Body{}.compute(1).section(s1, 4)
                                          .compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kPcp, sys, {.horizon = 60});
  // lo locks S1 at t=1 (ceiling = hi's priority) and runs one cs tick.
  // mid arrives t=2, computes t=2..3 (preempting lo), requests S2 at t=3:
  // denied by S1's ceiling; lo inherits mid's priority and finishes the
  // remaining 3 cs ticks at t=6. mid then locks S2, finishing at 6+2=8.
  EXPECT_EQ(finishOf(r, mid, 0), 8);
  EXPECT_EQ(maxBlockedOf(r, mid), 3);
  (void)hi; (void)lo;
}

TEST(Pcp, BlockedAtMostOneCriticalSection) {
  // Under PCP a job that never suspends is blocked for at most ONE
  // lower-priority critical section, even with many semaphores in play.
  TaskSystemBuilder b(1);
  const ResourceId s1 = b.addResource("S1");
  const ResourceId s2 = b.addResource("S2");
  const TaskId hi = b.addTask({.name = "hi", .period = 50, .phase = 3,
                               .processor = 0,
                               .body = Body{}.compute(1).section(s1, 1)
                                          .section(s2, 1).compute(1)});
  const TaskId m1 = b.addTask({.name = "m1", .period = 80, .phase = 1,
                               .processor = 0,
                               .body = Body{}.section(s1, 5).compute(1)});
  const TaskId m2 = b.addTask({.name = "m2", .period = 100, .processor = 0,
                               .body = Body{}.section(s2, 5).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kPcp, sys, {.horizon = 80});
  // m2 locks S2 at 0 (ceiling P_hi). m1 arrives at 1 but its S1 request
  // at 1 is denied (S2's ceiling); hi arrives at 3. hi can be blocked by
  // at most one of the 5-tick sections, never both.
  const PriorityTables tables(sys);
  const auto bounds = pcpBlocking(sys, tables);
  EXPECT_LE(maxBlockedOf(r, hi),
            bounds[static_cast<std::size_t>(hi.value())].total());
  EXPECT_EQ(bounds[static_cast<std::size_t>(hi.value())].total(), 5);
  (void)m1; (void)m2;
}

TEST(Pcp, RejectsSystemsWithGlobalResources) {
  TaskSystemBuilder b(2);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "a", .period = 10, .processor = 0,
             .body = Body{}.section(s, 1)});
  b.addTask({.name = "b", .period = 20, .processor = 1,
             .body = Body{}.section(s, 1)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  EXPECT_THROW(simulate(ProtocolKind::kPcp, sys, {.horizon = 10}),
               ConfigError);
  EXPECT_THROW(pcpBlocking(sys, tables), ConfigError);
}

TEST(Pcp, MeasuredBlockingWithinAnalyticalBound) {
  // Sweep several two-semaphore uniprocessor systems; observed blocking
  // must stay within the PCP bound for every task.
  for (Duration cs = 1; cs <= 6; ++cs) {
    TaskSystemBuilder b(1);
    const ResourceId s1 = b.addResource("S1");
    const ResourceId s2 = b.addResource("S2");
    b.addTask({.name = "hi", .period = 40, .phase = 2, .processor = 0,
               .body = Body{}.compute(1).section(s1, 1).compute(1)});
    b.addTask({.name = "mid", .period = 60, .phase = 1, .processor = 0,
               .body = Body{}.compute(1).section(s2, cs).compute(1)});
    b.addTask({.name = "lo", .period = 90, .processor = 0,
               .body = Body{}.section(s1, cs).section(s2, 1).compute(1)});
    const TaskSystem sys = std::move(b).build();
    const PriorityTables tables(sys);
    const auto bounds = pcpBlocking(sys, tables);
    const SimResult r = simulate(ProtocolKind::kPcp, sys, {.horizon = 400});
    for (const Task& t : sys.tasks()) {
      EXPECT_LE(maxBlockedOf(r, t.id),
                bounds[static_cast<std::size_t>(t.id.value())].total())
          << t.name << " cs=" << cs;
    }
  }
}

TEST(Pcp, MutualExclusionAndOrderInvariants) {
  const CrossedLocks c = makeCrossedLocks();
  const SimResult r = simulate(ProtocolKind::kPcp, c.sys, {.horizon = 400});
  const InvariantReport rep = checkMutualExclusion(c.sys, r);
  EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

}  // namespace
}  // namespace mpcp
