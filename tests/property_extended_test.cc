// Second property-test battery: suspensions in random workloads, random
// hybrid policies, uniprocessor PCP blocked-at-most-once, DPCP agent
// load concentration, and protocol-equivalence properties.
#include <gtest/gtest.h>

#include "analysis/blocking_pcp.h"
#include "analysis/ceilings.h"
#include "analysis/profiles.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/simulate.h"
#include "taskgen/generator.h"
#include "test_util.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

using ::mpcp::testing::maxBlockedOf;

TEST(PropertyExtended, KeptBreakdownFoldsBackToBlockingAndJitter) {
  // ProtocolAnalysis keeps the per-task factors it derives B_i and the
  // jitter from; adding the self-suspension back must give both exactly,
  // under every analysis (pcp on systems without globals).
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.cs_max = 20;
  p.suspension_prob = 0.5;
  int folded = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 29);
    p.global_resources = seed % 3 == 0 ? 0 : 2;
    const TaskSystem sys = generateWorkload(p, rng);
    const std::vector<TaskProfile> profiles = buildProfiles(sys);
    for (const ProtocolKind kind :
         {ProtocolKind::kPcp, ProtocolKind::kMpcp, ProtocolKind::kDpcp,
          ProtocolKind::kHybrid, ProtocolKind::kSpinFifo,
          ProtocolKind::kSpinPrio}) {
      if (kind == ProtocolKind::kPcp && sys.hasGlobalResources()) continue;
      const ProtocolAnalysis a = analyzeUnder(kind, sys);
      ASSERT_EQ(a.factors.size(), sys.tasks().size());
      for (std::size_t i = 0; i < a.factors.size(); ++i) {
        const Duration s = profiles[i].total_suspension;
        EXPECT_EQ(a.factors[i].total() + s, a.blocking[i])
            << toString(kind) << " seed " << seed << " task " << i;
        EXPECT_EQ(a.factors[i].remoteSuspension() + s, a.jitter[i])
            << toString(kind) << " seed " << seed << " task " << i;
      }
      ++folded;
    }
  }
  EXPECT_EQ(folded, 4 * 6 + 8 * 5);  // pcp only on the 4 local-only seeds
}

TEST(PropertyExtended, MpcpSoundWithSuspendingWorkloads) {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.35;
  p.period_min = 1'000;
  p.period_max = 20'000;
  p.period_granularity = 1'000;
  p.global_resources = 2;
  p.cs_max = 15;
  p.suspension_prob = 0.5;
  p.suspend_max = 50;
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 41);
    const TaskSystem sys = generateWorkload(p, rng);
    const ProtocolAnalysis analysis = analyzeUnder(ProtocolKind::kMpcp, sys);
    const SimResult r = simulate(ProtocolKind::kMpcp, sys,
                                 {.horizon_cap = 400'000});
    const InvariantReport rep = checkProtocolInvariants(sys, r);
    ASSERT_TRUE(rep.ok()) << rep.violations.front();
    if (analysis.report.rta_all) {
      ++accepted;
      EXPECT_FALSE(r.any_deadline_miss) << "seed " << seed;
    }
  }
  EXPECT_GT(accepted, 5) << "sweep too weak to be meaningful";
}

TEST(PropertyExtended, GcsPriorityAssignmentAuditOverRandomRuns) {
  WorkloadParams p;
  p.processors = 4;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.global_resources = 3;
  p.global_sharing_prob = 0.9;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 59);
    const TaskSystem sys = generateWorkload(p, rng);
    const PriorityTables tables(sys);
    {
      const SimResult r = simulate(ProtocolKind::kMpcp, sys,
                                   {.horizon_cap = 200'000});
      const InvariantReport rep = checkGcsPriorityAssignment(
          sys, r, tables, GcsPriorityRule::kSharedMemory);
      EXPECT_TRUE(rep.ok()) << rep.violations.front();
    }
    {
      const SimResult r = simulate(ProtocolKind::kDpcp, sys,
                                   {.horizon_cap = 200'000});
      const InvariantReport rep = checkGcsPriorityAssignment(
          sys, r, tables, GcsPriorityRule::kMessageBased);
      EXPECT_TRUE(rep.ok()) << rep.violations.front();
    }
  }
}

TEST(PropertyExtended, PcpBlockedAtMostOnceOverRandomUniprocessorSets) {
  // Non-suspending uniprocessor workloads: every job's measured blocking
  // must fit within ONE lower-priority critical section (the classic PCP
  // property), which is exactly the pcpBlocking bound.
  WorkloadParams p;
  p.processors = 1;
  p.tasks_per_processor = 5;
  p.utilization_per_processor = 0.6;
  p.period_min = 1'000;
  p.period_max = 10'000;
  p.period_granularity = 500;
  p.global_resources = 0;
  p.local_resources_per_processor = 3;
  p.max_lcs_per_task = 2;
  p.local_sharing_prob = 0.9;
  p.cs_max = 40;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 67);
    const TaskSystem sys = generateWorkload(p, rng);
    const PriorityTables tables(sys);
    const auto bounds = pcpBlocking(sys, tables);
    const SimResult r = simulate(ProtocolKind::kPcp, sys,
                                 {.horizon_cap = 200'000});
    for (const Task& t : sys.tasks()) {
      EXPECT_LE(maxBlockedOf(r, t.id),
                bounds[static_cast<std::size_t>(t.id.value())].total())
          << t.name << " seed " << seed;
    }
  }
}

TEST(PropertyExtended, RandomHybridPoliciesKeepInvariants) {
  WorkloadParams p;
  p.processors = 3;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.global_resources = 3;
  p.global_sharing_prob = 0.8;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 73);
    const TaskSystem sys = generateWorkload(p, rng);
    HybridPolicy policy = HybridPolicy::allShared(sys);
    for (const ResourceInfo& r : sys.resources()) {
      if (r.scope == ResourceScope::kGlobal && rng.chance(0.5)) {
        policy.set(r.id, GlobalPolicy::kMessageBased);
      }
    }
    const SimResult r = simulateHybrid(sys, policy,
                                       {.horizon_cap = 200'000});
    EXPECT_TRUE(checkMutualExclusion(sys, r).ok()) << "seed " << seed;
    EXPECT_TRUE(checkPriorityOrderedHandoff(sys, r).ok()) << "seed " << seed;
  }
}

TEST(PropertyExtended, DpcpConcentratesLoadOnSyncProcessor) {
  // Pin every global resource to a dedicated spare processor: under DPCP
  // that processor carries all gcs work; under MPCP it stays idle.
  TaskSystemBuilder b(3);
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "a", .period = 20, .processor = 0,
             .body = Body{}.compute(2).section(g1, 4).compute(1)});
  b.addTask({.name = "c", .period = 30, .processor = 1,
             .body = Body{}.compute(2).section(g2, 5).section(g1, 2)
                        .compute(1)});
  b.assignSyncProcessor(g1, ProcessorId(2));
  b.assignSyncProcessor(g2, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();

  const SimResult dpcp = simulate(ProtocolKind::kDpcp, sys, {.horizon = 600});
  const SimResult mpcp = simulate(ProtocolKind::kMpcp, sys, {.horizon = 600});
  ASSERT_EQ(dpcp.processor_busy.size(), 3u);
  EXPECT_GT(dpcp.processor_busy[2], 0);   // all gcs work lands on P2
  EXPECT_EQ(mpcp.processor_busy[2], 0);   // MPCP never touches P2
  // Total work is conserved across protocols.
  Duration total_d = 0, total_m = 0;
  for (Duration x : dpcp.processor_busy) total_d += x;
  for (Duration x : mpcp.processor_busy) total_m += x;
  EXPECT_EQ(total_d, total_m);
}

TEST(PropertyExtended, NonePrioEqualsMpcpWhenNoContentionEver) {
  // Tasks that never overlap on their global resource: every protocol
  // yields the same schedule except for gcs elevation effects; with no
  // local competition either, even finish times agree.
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "a", .period = 100, .processor = 0,
             .body = Body{}.compute(2).section(g, 2).compute(2)});
  b.addTask({.name = "c", .period = 100, .phase = 50, .processor = 1,
             .body = Body{}.compute(2).section(g, 2).compute(2)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r1 = simulate(ProtocolKind::kNonePrio, sys, {.horizon = 400});
  const SimResult r2 = simulate(ProtocolKind::kMpcp, sys, {.horizon = 400});
  ASSERT_EQ(r1.jobs.size(), r2.jobs.size());
  for (std::size_t i = 0; i < r1.jobs.size(); ++i) {
    EXPECT_EQ(r1.jobs[i].finish, r2.jobs[i].finish);
  }
}

}  // namespace
}  // namespace mpcp
