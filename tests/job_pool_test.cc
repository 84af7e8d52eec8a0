// JobPool — the engine's slot-indexed job store: O(1) JobId -> slot
// lookup, address stability across chunk growth, slot recycling, and
// release-order live iteration (the engine's accounting sweeps depend
// on it).
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "sim/job_pool.h"

namespace mpcp {
namespace {

JobId jid(int task, std::int64_t instance = 0) {
  return JobId{TaskId(task), instance};
}

TEST(JobPool, FindIsIdIndexed) {
  JobPool pool;
  Job& a = pool.allocate(jid(0, 0));
  Job& b = pool.allocate(jid(1, 0));
  Job& c = pool.allocate(jid(0, 1));

  EXPECT_EQ(pool.find(jid(0, 0)), &a);
  EXPECT_EQ(pool.find(jid(1, 0)), &b);
  EXPECT_EQ(pool.find(jid(0, 1)), &c);
  EXPECT_EQ(pool.find(jid(2, 0)), nullptr);
  EXPECT_EQ(pool.find(jid(1, 1)), nullptr);
  EXPECT_EQ(pool.liveCount(), 3u);
}

TEST(JobPool, FindAfterReleaseMisses) {
  JobPool pool;
  pool.allocate(jid(0));
  Job& b = pool.allocate(jid(1));
  pool.release(b);
  EXPECT_EQ(pool.find(jid(1)), nullptr);
  EXPECT_NE(pool.find(jid(0)), nullptr);
  EXPECT_EQ(pool.liveCount(), 1u);
}

TEST(JobPool, SlotIsRecycledAndRemapped) {
  JobPool pool;
  Job& a = pool.allocate(jid(0));
  const std::uint32_t slot = pool.slotOf(a);
  pool.release(a);

  // The freed slot is reused by the next allocation, and the id index
  // points the new id at it.
  Job& b = pool.allocate(jid(7, 3));
  EXPECT_EQ(pool.slotOf(b), slot);
  EXPECT_EQ(&b, &a);  // same storage
  EXPECT_EQ(b.id, jid(7, 3));
  EXPECT_EQ(pool.find(jid(7, 3)), &b);
  EXPECT_EQ(pool.find(jid(0)), nullptr);
  EXPECT_EQ(pool.capacity(), 1u);  // no new slot was created
}

TEST(JobPool, RecycledJobIsFullyReset) {
  JobPool pool;
  pool.configure(/*n_tasks=*/2, /*expected_slots=*/4, /*held_depth=*/1,
                 /*per_task_reserve=*/1);
  Job& a = pool.allocate(jid(0));
  a.op_remaining = 42;
  a.executed = 17;
  a.held.push_back(ResourceId(3));
  a.inherited = Priority(9);
  pool.release(a);

  Job& b = pool.allocate(jid(1));
  EXPECT_EQ(b.op_remaining, -1);
  EXPECT_EQ(b.executed, 0);
  EXPECT_TRUE(b.held.empty());
  EXPECT_EQ(b.held.capacity(), 1u);  // the slot's held slice is kept
  EXPECT_EQ(b.inherited, kPriorityFloor);
}

TEST(JobPool, AddressesStableAcrossChunkGrowth) {
  JobPool pool;
  const int n = static_cast<int>(JobPool::kChunkSize) * 3 + 7;
  std::vector<Job*> ptrs;
  for (int i = 0; i < n; ++i) {
    ptrs.push_back(&pool.allocate(jid(i)));
  }
  // Growing into new chunks must not move earlier jobs.
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)]->id, jid(i));
    EXPECT_EQ(pool.find(jid(i)), ptrs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(pool.liveCount(), static_cast<std::size_t>(n));
}

TEST(JobPool, HeldStacksAreDisjointSlicesOfTheStaticDepth) {
  // Three configured slots, ten live jobs: seven land in overflow chunks,
  // which get held slices of their own.
  JobPool pool;
  pool.configure(/*n_tasks=*/10, /*expected_slots=*/3, /*held_depth=*/2,
                 /*per_task_reserve=*/1);
  std::vector<Job*> jobs;
  for (int i = 0; i < 10; ++i) {
    Job& j = pool.allocate(jid(i));
    EXPECT_EQ(j.held.capacity(), 2u);
    EXPECT_TRUE(j.held.empty());
    j.held.push_back(ResourceId(i));
    j.held.push_back(ResourceId(100 + i));
    jobs.push_back(&j);
  }
  EXPECT_EQ(pool.capacity(), 10u);
  for (int i = 0; i < 10; ++i) {
    const Job& j = *jobs[static_cast<std::size_t>(i)];
    EXPECT_EQ(pool.find(jid(i)), &j);
    ASSERT_EQ(j.held.size(), 2u);
    EXPECT_EQ(*j.held.begin(), ResourceId(i));
    EXPECT_EQ(j.held.back(), ResourceId(100 + i));
  }
  // Nesting past the static depth is an engine bug, not silent growth.
  EXPECT_THROW(jobs[9]->held.push_back(ResourceId(7)), InvariantError);
  jobs[9]->held.pop_back();
  EXPECT_EQ(jobs[9]->held.back(), ResourceId(9));
}

TEST(JobPool, LiveIterationIsReleaseOrder) {
  JobPool pool;
  for (int i = 0; i < 6; ++i) pool.allocate(jid(i));
  pool.release(*pool.find(jid(2)));  // middle
  pool.release(*pool.find(jid(0)));  // head
  pool.release(*pool.find(jid(5)));  // tail
  pool.allocate(jid(9));             // reuses a slot, appends to the list

  std::vector<int> order;
  pool.forEachLive(
      [&](Job& j) { order.push_back(j.id.task.value()); });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 9}));
}

TEST(JobPool, LiveIterationSurvivesReleasingVisitedJob) {
  JobPool pool;
  for (int i = 0; i < 4; ++i) pool.allocate(jid(i));
  std::vector<int> order;
  pool.forEachLive([&](Job& j) {
    order.push_back(j.id.task.value());
    if (j.id.task.value() % 2 == 0) pool.release(j);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(pool.liveCount(), 2u);
}

TEST(JobPool, DuplicateLiveIdThrows) {
  JobPool pool;
  pool.allocate(jid(0));
  EXPECT_THROW(pool.allocate(jid(0)), InvariantError);
  // ...but the same id may live again once the first instance retired.
  // (The failed allocate above consumed a slot; the pool stays usable.)
  Job* first = pool.find(jid(0));
  ASSERT_NE(first, nullptr);
  pool.release(*first);
  EXPECT_NO_THROW(pool.allocate(jid(0)));
}

}  // namespace
}  // namespace mpcp
