// Hybrid shared-memory/message-based protocol (the conclusion's mixed
// variant): behaviour, pure-policy equivalence, analysis soundness.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/hybrid_blocking.h"
#include "core/hybrid_protocol.h"
#include "core/simulate.h"
#include "taskgen/generator.h"
#include "test_util.h"
#include "trace/invariants.h"

namespace mpcp {
namespace {

using ::mpcp::testing::finishOf;
using ::mpcp::testing::maxBlockedOf;

TaskSystem twoGlobalSystem() {
  TaskSystemBuilder b(3);
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "a", .period = 40, .phase = 1, .processor = 0,
             .body = Body{}.compute(1).section(g1, 2).compute(1)});
  b.addTask({.name = "b", .period = 60, .processor = 1,
             .body = Body{}.compute(1).section(g1, 3).section(g2, 2)
                        .compute(1)});
  b.addTask({.name = "c", .period = 90, .processor = 2,
             .body = Body{}.compute(1).section(g2, 4).compute(1)});
  return std::move(b).build();
}

TEST(Hybrid, AllSharedMatchesMpcpSchedule) {
  const TaskSystem sys = twoGlobalSystem();
  const SimResult rh = simulateHybrid(sys, HybridPolicy::allShared(sys),
                                      {.horizon = 2000});
  const SimResult rm = simulate(ProtocolKind::kMpcp, sys, {.horizon = 2000});
  ASSERT_EQ(rh.jobs.size(), rm.jobs.size());
  for (std::size_t i = 0; i < rh.jobs.size(); ++i) {
    EXPECT_EQ(rh.jobs[i].finish, rm.jobs[i].finish);
    EXPECT_EQ(rh.jobs[i].blocked, rm.jobs[i].blocked);
  }
}

TEST(Hybrid, AllMessageMatchesDpcpSchedule) {
  const TaskSystem sys = twoGlobalSystem();
  const SimResult rh = simulateHybrid(sys, HybridPolicy::allMessage(sys),
                                      {.horizon = 2000});
  const SimResult rd = simulate(ProtocolKind::kDpcp, sys, {.horizon = 2000});
  ASSERT_EQ(rh.jobs.size(), rd.jobs.size());
  for (std::size_t i = 0; i < rh.jobs.size(); ++i) {
    EXPECT_EQ(rh.jobs[i].finish, rd.jobs[i].finish);
    EXPECT_EQ(rh.jobs[i].blocked, rd.jobs[i].blocked);
  }
}

TEST(Hybrid, MixedPoliciesMigrateOnlyMessageSections) {
  TaskSystemBuilder b(3);
  const ResourceId shared = b.addResource("SHARED");
  const ResourceId msg = b.addResource("MSG");
  const TaskId a = b.addTask({.name = "a", .period = 50, .processor = 0,
                              .body = Body{}.compute(1).section(shared, 2)
                                         .section(msg, 2).compute(1)});
  b.addTask({.name = "b", .period = 70, .phase = 30, .processor = 1,
             .body = Body{}.section(shared, 1).section(msg, 1).compute(1)});
  b.assignSyncProcessor(msg, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  HybridPolicy policy = HybridPolicy::allShared(sys);
  policy.set(msg, GlobalPolicy::kMessageBased);
  const SimResult r = simulateHybrid(sys, policy, {.horizon = 100});
  // The MSG section of `a` runs on P2; the SHARED section stays on P0.
  bool saw_shared_local = false, saw_msg_remote = false;
  for (const ExecSegment& s : r.segments) {
    if (!(s.job.task == a) || s.mode != ExecMode::kGcs) continue;
    if (s.processor.value() == 0) saw_shared_local = true;
    if (s.processor.value() == 2) saw_msg_remote = true;
  }
  EXPECT_TRUE(saw_shared_local);
  EXPECT_TRUE(saw_msg_remote);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(Hybrid, MessagePolicyRemovesLocalGcsInterference) {
  // lo's gcs preempts hi's normal code when shared; moving the resource
  // to message-based policy exports that interference to the sync
  // processor, so hi finishes earlier.
  auto build = [] {
    TaskSystemBuilder b(3);
    const ResourceId g = b.addResource("G");
    b.addTask({.name = "hi", .period = 50, .phase = 1, .processor = 0,
               .body = Body{}.compute(4)});
    b.addTask({.name = "lo", .period = 100, .processor = 0,
               .body = Body{}.section(g, 5).compute(1)});
    b.addTask({.name = "rem", .period = 80, .phase = 40, .processor = 1,
               .body = Body{}.section(g, 1).compute(1)});
    b.assignSyncProcessor(g, ProcessorId(2));
    return std::move(b).build();
  };
  const TaskSystem sys = build();
  const TaskId hi(0);

  const SimResult shared =
      simulateHybrid(sys, HybridPolicy::allShared(sys), {.horizon = 50});
  const SimResult message =
      simulateHybrid(sys, HybridPolicy::allMessage(sys), {.horizon = 50});
  // Shared: lo's gcs [0,5) blocks hi until 5 -> hi finishes at 9.
  // Message: lo's gcs runs on P2; hi runs [1,5) -> finishes at 5.
  EXPECT_EQ(finishOf(shared, hi, 0), 9);
  EXPECT_EQ(finishOf(message, hi, 0), 5);
  EXPECT_GT(maxBlockedOf(shared, hi), maxBlockedOf(message, hi));
}

TEST(Hybrid, RejectsSharedPolicyNesting) {
  TaskSystemBuilder b(2, {.allow_nested_global = true});
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  b.addTask({.name = "a", .period = 50, .processor = 0,
             .body = Body{}.lock(g1).section(g2, 1).unlock(g1).compute(1)});
  b.addTask({.name = "b", .period = 60, .processor = 1,
             .body = Body{}.section(g1, 1).section(g2, 1)});
  const TaskSystem sys = std::move(b).build();
  const PriorityTables tables(sys);
  EXPECT_THROW(HybridProtocol(sys, tables, HybridPolicy::allShared(sys)),
               ConfigError);
  // Message policy on both (same default sync processor): accepted.
  EXPECT_NO_THROW(HybridProtocol(sys, tables, HybridPolicy::allMessage(sys)));
}

TEST(Hybrid, PureSharedBlockingMatchesMpcpBound) {
  const TaskSystem sys = twoGlobalSystem();
  const PriorityTables tables(sys);
  const auto hybrid =
      hybridBlocking(sys, tables, HybridPolicy::allShared(sys));
  const MpcpBlockingAnalysis mpcp_analysis(sys, tables);
  for (const Task& t : sys.tasks()) {
    EXPECT_EQ(hybrid[static_cast<std::size_t>(t.id.value())].total(),
              mpcp_analysis.blocking(t.id).total())
        << t.name;
  }
}

TEST(Hybrid, AnalysisTagsTheCallersKind) {
  const TaskSystem sys = twoGlobalSystem();
  for (const ProtocolKind kind :
       {ProtocolKind::kMpcp, ProtocolKind::kDpcp, ProtocolKind::kHybrid}) {
    EXPECT_EQ(analyzeUnder(kind, sys).kind, kind) << toString(kind);
  }
  HybridPolicy custom = HybridPolicy::allShared(sys);
  custom.set(ResourceId(1), GlobalPolicy::kMessageBased);
  EXPECT_EQ(analyzeHybrid(sys, custom).kind, ProtocolKind::kHybrid);
  EXPECT_EQ(analyzeHybrid(sys, HybridPolicy::allShared(sys)).kind,
            ProtocolKind::kHybrid);
}

TEST(Hybrid, AnalysisSoundAgainstSimulation) {
  // Random workloads with a random policy split: accepted => no miss,
  // measured blocking <= bound.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 31);
    WorkloadParams params;
    params.processors = 3;
    params.tasks_per_processor = 3;
    params.utilization_per_processor = 0.4;
    params.global_resources = 2;
    params.cs_max = 15;
    const TaskSystem sys = generateWorkload(params, rng);
    HybridPolicy policy = HybridPolicy::allShared(sys);
    for (const ResourceInfo& r : sys.resources()) {
      if (r.scope == ResourceScope::kGlobal && rng.chance(0.5)) {
        policy.set(r.id, GlobalPolicy::kMessageBased);
      }
    }
    const ProtocolAnalysis analysis = analyzeHybrid(sys, policy);
    const SimResult r = simulateHybrid(sys, policy, {.horizon_cap = 300'000});
    const InvariantReport rep = checkMutualExclusion(sys, r);
    ASSERT_TRUE(rep.ok()) << rep.violations.front();
    if (analysis.report.rta_all) {
      EXPECT_FALSE(r.any_deadline_miss) << "seed " << seed;
    }
    if (!r.any_deadline_miss) {
      for (const Task& t : sys.tasks()) {
        EXPECT_LE(maxBlockedOf(r, t.id),
                  analysis.blocking[static_cast<std::size_t>(t.id.value())])
            << t.name << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace mpcp
