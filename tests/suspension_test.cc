// Voluntary self-suspension (SuspendOp) — the Theorem 1 mechanism: a job
// that suspends n times can be blocked by up to n+1 lower-priority local
// critical sections, and its deferred execution jitters lower-priority
// neighbours.
#include <gtest/gtest.h>

#include "analysis/ceilings.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/hybrid_blocking.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "test_util.h"

namespace mpcp {
namespace {

using enum BlockingFactor;

using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

TEST(Suspension, TimedSuspensionDelaysOnlyTheSuspendingJob) {
  TaskSystemBuilder b(1);
  const TaskId hi = b.addTask({.name = "hi", .period = 50, .processor = 0,
                               .body = Body{}.compute(2).suspend(5)
                                          .compute(2)});
  const TaskId lo = b.addTask({.name = "lo", .period = 100, .processor = 0,
                               .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys, {.horizon = 50});
  // hi: run [0,2), suspend [2,7), run [7,9). lo fills the gap [2,6).
  EXPECT_EQ(finishOf(r, hi, 0), 9);
  EXPECT_EQ(finishOf(r, lo, 0), 6);
  // The suspension is voluntary: not blocking, not preemption.
  for (const JobRecord& jr : r.jobs) {
    if (jr.id.task == hi) {
      EXPECT_EQ(jr.suspended, 5);
      EXPECT_EQ(jr.blocked, 0);
    }
  }
}

TEST(Suspension, SuspendInsideCriticalSectionRejected) {
  TaskSystemBuilder b(1);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "bad", .period = 10, .processor = 0,
             .body = Body{}.lock(s).suspend(1).unlock(s).compute(1)});
  EXPECT_THROW(std::move(b).build(), ConfigError);
}

TEST(Suspension, TheoremOneExtraLocalBlocking) {
  // With n voluntary suspensions, F1 charges (n + 1) lower-priority local
  // sections (no global accesses here).
  auto build = [](int suspensions) {
    TaskSystemBuilder b(2);
    const ResourceId l = b.addResource("L");
    const ResourceId g = b.addResource("G");  // make it a real multiproc
    Body body = Body{}.compute(1).section(l, 1);
    for (int k = 0; k < suspensions; ++k) {
      body.suspend(3).compute(1);
    }
    b.addTask({.name = "hi", .period = 100, .processor = 0,
               .body = std::move(body)});
    b.addTask({.name = "lo", .period = 200, .processor = 0,
               .body = Body{}.section(l, 7).compute(1)});
    b.addTask({.name = "r1", .period = 150, .processor = 1,
               .body = Body{}.section(g, 1).compute(1)});
    b.addTask({.name = "r0", .period = 300, .processor = 0,
               .body = Body{}.section(g, 1).compute(1)});
    return std::move(b).build();
  };
  for (int n : {0, 1, 3}) {
    const TaskSystem sys = build(n);
    const PriorityTables tables(sys);
    const MpcpBlockingAnalysis analysis(sys, tables);
    // hi = task 0; F1 = (n + 1) * 7.
    EXPECT_EQ(analysis.blocking(TaskId(0))[kLocalLowerCs],
              static_cast<Duration>(n + 1) * 7)
        << "suspensions=" << n;
  }
}

TEST(Suspension, RepeatedBlockingAfterEachSuspensionObserved) {
  // Construct the Theorem 1 worst case in simulation: after each of hi's
  // suspensions, lo re-locks L just in time to block hi again.
  TaskSystemBuilder b(1);
  const ResourceId l = b.addResource("L");
  const TaskId hi = b.addTask(
      {.name = "hi", .period = 200, .phase = 1, .processor = 0,
       .body = Body{}.section(l, 1).suspend(2).section(l, 1).compute(1)});
  const TaskId lo = b.addTask(
      {.name = "lo", .period = 400, .processor = 0,
       .body = Body{}.section(l, 3).compute(1).section(l, 3).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kPcp, sys, {.horizon = 100});
  // lo locks L at t=0 (3 ticks). hi arrives at 1, blocks 2 ticks, runs
  // its first section [3,4), suspends [4,6); lo computes [4,5) and
  // re-locks L for [5,8); hi resumes at 6 and blocks again [6,8) ->
  // two blocking episodes totalling 4 > one 3-tick section.
  EXPECT_GT(maxBlockedOf(r, hi), 3);
  // And the PCP single-section bound does NOT hold for a suspending job —
  // exactly why Theorem 1 charges n+1 sections.
  const PriorityTables tables(sys);
  const MpcpBlockingAnalysis analysis(sys, tables);
  EXPECT_LE(maxBlockedOf(r, hi),
            analysis.blocking(hi).total() + 0);  // Theorem-1-style bound
  (void)lo;
}

TEST(Suspension, SelfSuspensionInAnalyzerBlocking) {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "a", .period = 100, .processor = 0,
             .body = Body{}.compute(2).suspend(10).compute(2)
                        .section(g, 1)});
  b.addTask({.name = "b", .period = 200, .processor = 1,
             .body = Body{}.section(g, 2).compute(1)});
  const TaskSystem sys = std::move(b).build();
  const ProtocolAnalysis pa = analyzeUnder(ProtocolKind::kMpcp, sys);
  // a's B includes its own 10-tick suspension plus b's 2-tick gcs.
  EXPECT_EQ(pa.blocking[0], 12);
  EXPECT_EQ(pa.jitter[0], 12);  // suspension + remote wait defer a's work
}

TEST(Suspension, AnalysisStillSoundWithSuspensions) {
  // Random-ish scenario with suspensions everywhere: accepted => no miss.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 977);
    TaskSystemBuilder b(2);
    const ResourceId g = b.addResource("G");
    const ResourceId l0 = b.addResource("L0");
    for (int p = 0; p < 2; ++p) {
      for (int k = 0; k < 2; ++k) {
        const Duration period = rng.uniformInt(2'000, 8'000);
        Body body;
        body.compute(rng.uniformInt(50, 150));
        if (rng.chance(0.7)) body.suspend(rng.uniformInt(10, 100));
        body.compute(rng.uniformInt(20, 80));
        body.section(g, rng.uniformInt(5, 25));
        if (p == 0 && rng.chance(0.5)) {
          body.section(l0, rng.uniformInt(5, 20));
        }
        body.compute(rng.uniformInt(10, 50));
        TaskSpec spec;
        spec.name = "t";
        spec.name += std::to_string(p);
        spec.name += '_';
        spec.name += std::to_string(k);
        spec.period = period;
        spec.processor = p;
        spec.body = std::move(body);
        b.addTask(std::move(spec));
      }
    }
    const TaskSystem sys = std::move(b).build();
    const ProtocolAnalysis pa = analyzeUnder(ProtocolKind::kMpcp, sys);
    const SimResult r = simulate(ProtocolKind::kMpcp, sys,
                                 {.horizon_cap = 400'000});
    if (pa.report.rta_all) {
      EXPECT_FALSE(r.any_deadline_miss) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mpcp
