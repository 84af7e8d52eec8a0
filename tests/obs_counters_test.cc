// Runtime observability counters: bump-site semantics (contended vs
// uncontended locks, handoffs, migrations, ready-queue high-water
// marks, blocking histograms), engine-vs-reference agreement on the
// lock path, and thread-count-independent sweep aggregation.
#include <gtest/gtest.h>

#include "core/simulate.h"
#include "exp/counter_sweep.h"
#include "model/task_system.h"
#include "obs/counters.h"
#include "reference_parity.h"
#include "sim/reference.h"

namespace mpcp {
namespace {

/// a (P0) grabs G at t=0 and holds it 5 ticks; b (P1) computes one tick
/// and requests G at t=1, waiting 4 ticks for the handoff at t=5. One
/// contended episode exactly.
TaskSystem contendedOnce() {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "a", .period = 100, .processor = 0,
             .body = Body{}.section(g, 5)});
  b.addTask({.name = "b", .period = 100, .processor = 1,
             .body = Body{}.compute(1).section(g, 1)});
  return std::move(b).build();
}

TEST(Counters, ContendedLockCountsExactlyOneWait) {
  const TaskSystem sys = contendedOnce();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 40});
  const obs::Counters& c = r.counters;
  const ResourceId g(0);
  EXPECT_EQ(c.res(g).acquisitions, 2u);     // a's grant + b's handoff grant
  EXPECT_EQ(c.res(g).contended_waits, 1u);  // b parked once
  EXPECT_EQ(c.res(g).handoffs, 1u);         // V() passed G straight to b
  EXPECT_EQ(c.jobs_released, 2u);
  EXPECT_EQ(c.jobs_finished, 2u);
  EXPECT_EQ(c.deadline_misses, 0u);
}

TEST(Counters, UncontendedLockNeverBumpsContended) {
  TaskSystemBuilder b(1);
  const ResourceId s = b.addResource("S");
  b.addTask({.name = "solo", .period = 10, .processor = 0,
             .body = Body{}.compute(1).section(s, 2)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 50});
  EXPECT_EQ(r.counters.res(ResourceId(0)).acquisitions, 5u);  // 5 jobs
  EXPECT_EQ(r.counters.res(ResourceId(0)).contended_waits, 0u);
  EXPECT_EQ(r.counters.res(ResourceId(0)).handoffs, 0u);
}

TEST(Counters, BlockingHistogramRecordsTheWaiterOnly) {
  const TaskSystem sys = contendedOnce();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 40});
  const obs::BlockingHistogram& ha = r.counters.task_blocking[0];
  const obs::BlockingHistogram& hb = r.counters.task_blocking[1];
  EXPECT_EQ(ha.samples, 1u);
  EXPECT_EQ(ha.max_blocked, 0);  // a never waits
  EXPECT_EQ(hb.samples, 1u);
  EXPECT_EQ(hb.max_blocked, 4);  // b waits t=1..5 for a's V()
  EXPECT_EQ(hb.total_blocked, 4u);
  // 4 ticks lands in bucket 3 = [4, 8).
  EXPECT_EQ(hb.buckets[3], 1u);
  EXPECT_EQ(obs::BlockingHistogram::bucketOf(4), 3);
}

TEST(Counters, HistogramBucketBoundaries) {
  using H = obs::BlockingHistogram;
  EXPECT_EQ(H::bucketOf(0), 0);
  EXPECT_EQ(H::bucketOf(1), 1);
  EXPECT_EQ(H::bucketOf(2), 2);
  EXPECT_EQ(H::bucketOf(3), 2);
  EXPECT_EQ(H::bucketOf(4), 3);
  EXPECT_EQ(H::bucketOf(Duration{1} << 40), H::kBuckets - 1);
  EXPECT_EQ(H::bucketRange(0), (std::pair<Duration, Duration>{0, 1}));
  EXPECT_EQ(H::bucketRange(3), (std::pair<Duration, Duration>{4, 8}));
  EXPECT_EQ(H::bucketRange(H::kBuckets - 1).second, -1);
}

TEST(Counters, DpcpAgentMigrationsCountEachHop) {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "user", .period = 100, .processor = 0,
             .body = Body{}.compute(1).section(g, 2).compute(1)});
  b.addTask({.name = "peer", .period = 200, .phase = 50, .processor = 1,
             .body = Body{}.section(g, 1)});
  b.assignSyncProcessor(g, ProcessorId(1));
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kDpcp, sys, {.horizon = 60});
  // user's one gcs executes on P1: one hop there, one hop back. peer
  // already lives on the sync processor, so its section never migrates.
  EXPECT_EQ(r.counters.migrations, 2u);
}

TEST(Counters, ReadyQueueHighWaterMarkSeesSimultaneousReleases) {
  TaskSystemBuilder b(2);
  b.addTask({.name = "hi", .period = 20, .processor = 0,
             .body = Body{}.compute(2)});
  b.addTask({.name = "lo", .period = 40, .processor = 0,
             .body = Body{}.compute(2)});
  b.addTask({.name = "other", .period = 40, .processor = 1,
             .body = Body{}.compute(1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kNone, sys, {.horizon = 40});
  // Both P0 tasks are released at t=0 and the running job stays in its
  // ready queue, so P0's depth reaches 2; P1 never exceeds 1.
  EXPECT_EQ(r.counters.ready_hwm[0], 2u);
  EXPECT_EQ(r.counters.ready_hwm[1], 1u);
}

TEST(Counters, ReferenceAgreesWithEngineOnLockPath) {
  const TaskSystem sys = contendedOnce();
  testing::expectSameAsReference(
      sys, simulate(ProtocolKind::kMpcp, sys, {.horizon = 40}),
      simulateReference(ProtocolKind::kMpcp, sys, 40), "contended once");
}

TEST(Counters, MergeSumsEverythingButTakesMaxOfHighWaterMarks) {
  obs::Counters a(2, 2, 1);
  obs::Counters b(2, 2, 1);
  a.res(ResourceId(0)).acquisitions = 3;
  b.res(ResourceId(0)).acquisitions = 4;
  a.ready_hwm = {5, 1};
  b.ready_hwm = {2, 7};
  a.recordBlocking(TaskId(0), 3);
  b.recordBlocking(TaskId(0), 100);
  a.preemptions = 2;
  b.preemptions = 5;
  a.merge(b);
  EXPECT_EQ(a.res(ResourceId(0)).acquisitions, 7u);
  EXPECT_EQ(a.ready_hwm[0], 5u);
  EXPECT_EQ(a.ready_hwm[1], 7u);
  EXPECT_EQ(a.task_blocking[0].samples, 2u);
  EXPECT_EQ(a.task_blocking[0].max_blocked, 100);
  EXPECT_EQ(a.preemptions, 7u);
}

TEST(Counters, MergeGrowsToTheLargerDimensions) {
  obs::Counters small(1, 1, 1);
  obs::Counters big(3, 2, 4);
  big.res(ResourceId(2)).handoffs = 9;
  small.merge(big);
  ASSERT_EQ(small.resources.size(), 3u);
  ASSERT_EQ(small.ready_hwm.size(), 2u);
  ASSERT_EQ(small.task_blocking.size(), 4u);
  EXPECT_EQ(small.res(ResourceId(2)).handoffs, 9u);
}

TEST(Counters, SweepAggregateIsIdenticalAtAnyThreadCount) {
  exp::CounterSweepOptions o;
  o.seeds = 8;
  o.seed_base = 42;
  o.horizon = 5'000;
  exp::SweepRunner serial(1);
  exp::SweepRunner wide(8);
  const obs::Counters a = exp::counterSweep(o, &serial);
  const obs::Counters b = exp::counterSweep(o, &wide);
  EXPECT_EQ(obs::renderCounters(a), obs::renderCounters(b));
  EXPECT_GT(a.jobs_released, 0u);
}

TEST(Counters, RenderMentionsEverySection) {
  const TaskSystem sys = contendedOnce();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 40});
  const std::string text = obs::renderCounters(r.counters);
  EXPECT_NE(text.find("jobs: released=2"), std::string::npos);
  EXPECT_NE(text.find("locks: acquisitions=2 contended-waits=1 handoffs=1"),
            std::string::npos);
  EXPECT_NE(text.find("S0:"), std::string::npos);
  EXPECT_NE(text.find("tau1:"), std::string::npos);
}

}  // namespace
}  // namespace mpcp
