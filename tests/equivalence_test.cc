// Cross-protocol equivalences that must hold by construction, and a
// chaos sweep that checks nothing crashes or violates mutual exclusion
// under any protocol on randomly structured bodies.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/simulate.h"
#include "taskgen/generator.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

TEST(Equivalence, ChaosSweepNoCrashNoMutexViolation) {
  // Randomly structured bodies (sections, suspensions, heavy sharing)
  // through every protocol: mutual exclusion must hold and nothing may
  // throw. Protocol-specific invariants are checked where they apply.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    WorkloadParams p;
    Rng knob_rng(seed);
    p.processors = 2 + static_cast<int>(knob_rng.uniformInt(0, 2));
    p.tasks_per_processor = 2 + static_cast<int>(knob_rng.uniformInt(0, 2));
    p.utilization_per_processor = knob_rng.uniformReal(0.3, 0.9);
    p.global_resources = 1 + static_cast<int>(knob_rng.uniformInt(0, 3));
    p.global_sharing_prob = knob_rng.uniformReal(0.3, 1.0);
    p.local_sharing_prob = knob_rng.uniformReal(0.0, 1.0);
    p.max_gcs_per_task = 1 + static_cast<int>(knob_rng.uniformInt(0, 3));
    p.cs_max = 1 + knob_rng.uniformInt(0, 40);
    p.suspension_prob = knob_rng.uniformReal(0.0, 0.6);
    Rng rng(seed * 997);
    const TaskSystem sys = generateWorkload(p, rng);

    for (const ProtocolKind kind :
         {ProtocolKind::kNone, ProtocolKind::kNonePrio, ProtocolKind::kPip,
          ProtocolKind::kMpcp, ProtocolKind::kDpcp}) {
      const SimResult r =
          simulate(kind, sys, {.horizon_cap = 100'000});
      const InvariantReport mutex = checkMutualExclusion(sys, r);
      EXPECT_TRUE(mutex.ok())
          << toString(kind) << " seed " << seed << ": "
          << mutex.violations.front();
      if (kind == ProtocolKind::kMpcp) {
        const InvariantReport gcs = checkGcsPreemptionRule(sys, r);
        EXPECT_TRUE(gcs.ok()) << "seed " << seed << ": "
                              << gcs.violations.front();
      }
      if (kind == ProtocolKind::kMpcp || kind == ProtocolKind::kDpcp ||
          kind == ProtocolKind::kNonePrio) {
        const InvariantReport order = checkPriorityOrderedHandoff(sys, r);
        EXPECT_TRUE(order.ok()) << toString(kind) << " seed " << seed
                                << ": " << order.violations.front();
      }
    }
  }
}

TEST(Equivalence, PipEqualsNoneWhenNoContention) {
  // A single task per processor with disjoint resources: every protocol
  // degenerates to plain scheduling.
  TaskSystemBuilder b(2);
  const ResourceId r0 = b.addResource("R0");
  const ResourceId r1 = b.addResource("R1");
  b.addTask({.name = "a", .period = 50, .processor = 0,
             .body = Body{}.compute(3).section(r0, 2).compute(3)});
  b.addTask({.name = "c", .period = 70, .processor = 1,
             .body = Body{}.compute(4).section(r1, 3).compute(2)});
  const TaskSystem sys = std::move(b).build();
  const SimResult none = simulate(ProtocolKind::kNone, sys, {.horizon = 700});
  const SimResult pip = simulate(ProtocolKind::kPip, sys, {.horizon = 700});
  const SimResult mpcp = simulate(ProtocolKind::kMpcp, sys, {.horizon = 700});
  ASSERT_EQ(none.jobs.size(), pip.jobs.size());
  ASSERT_EQ(none.jobs.size(), mpcp.jobs.size());
  for (std::size_t i = 0; i < none.jobs.size(); ++i) {
    EXPECT_EQ(none.jobs[i].finish, pip.jobs[i].finish);
    EXPECT_EQ(none.jobs[i].finish, mpcp.jobs[i].finish);
  }
}

}  // namespace
}  // namespace mpcp
