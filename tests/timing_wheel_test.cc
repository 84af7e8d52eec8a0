#include "sim/timing_wheel.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mpcp {
namespace {

// Reference model: a multimap from time to payloads. Drain order within a
// tick is not part of the wheel's contract (callers sort), so comparisons
// sort both sides.
class ReferenceQueue {
 public:
  void schedule(Time t, int p) { entries_.emplace(t, p); }
  [[nodiscard]] Time earliest() const {
    return entries_.empty() ? kTimeInfinity : entries_.begin()->first;
  }
  std::vector<int> drainAt(Time t) {
    std::vector<int> out;
    auto [lo, hi] = entries_.equal_range(t);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    entries_.erase(lo, hi);
    return out;
  }
  bool cancel(Time t, int p) {
    auto [lo, hi] = entries_.equal_range(t);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == p) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::multimap<Time, int> entries_;
};

TEST(TimingWheel, SameTickBatchDrain) {
  TimingWheel<int> w;
  w.schedule(5, 1);
  w.schedule(5, 2);
  w.schedule(5, 3);
  w.schedule(7, 4);
  EXPECT_EQ(w.earliest(), 5);
  EXPECT_EQ(w.size(), 4u);

  std::vector<int> out;
  w.drainAt(5, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(w.earliest(), 7);

  w.drainAt(6, out);  // empty tick between events
  EXPECT_TRUE(out.empty());
  w.drainAt(7, out);
  EXPECT_EQ(out, (std::vector<int>{4}));
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.earliest(), kTimeInfinity);
}

TEST(TimingWheel, OverflowBeyondWindowMigratesBack) {
  TimingWheel<int> w;
  const Time far = static_cast<Time>(TimingWheel<int>::kSlots) * 3 + 17;
  w.schedule(far, 42);
  w.schedule(2, 7);
  EXPECT_EQ(w.earliest(), 2);

  std::vector<int> out;
  w.drainAt(2, out);
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_EQ(w.earliest(), far);

  // Jump the window straight past the overflow threshold.
  w.drainAt(far - 1, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(w.earliest(), far);
  w.drainAt(far, out);
  EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(TimingWheel, SlotAliasingKeepsDistinctTimesApart) {
  // Two times that map to the same ring slot must never mix: the second
  // one sits in overflow until the window reaches it.
  TimingWheel<int> w;
  const Time later = static_cast<Time>(TimingWheel<int>::kSlots) + 3;
  w.schedule(3, 1);
  w.schedule(later, 2);
  std::vector<int> out;
  w.drainAt(3, out);
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(w.earliest(), later);
  w.drainAt(later, out);
  EXPECT_EQ(out, (std::vector<int>{2}));
}

TEST(TimingWheel, CancelRingAndOverflow) {
  TimingWheel<int> w;
  const Time far = static_cast<Time>(TimingWheel<int>::kSlots) * 2;
  w.schedule(10, 1);
  w.schedule(10, 2);
  w.schedule(far, 3);

  EXPECT_TRUE(w.cancel(10, [](int p) { return p == 1; }));
  EXPECT_FALSE(w.cancel(10, [](int p) { return p == 1; }));  // already gone
  EXPECT_TRUE(w.cancel(far, [](int p) { return p == 3; }));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.earliest(), 10);

  std::vector<int> out;
  w.drainAt(10, out);
  EXPECT_EQ(out, (std::vector<int>{2}));
  EXPECT_TRUE(w.empty());
}

// The bucket-head array starts uninitialised: a head may be read only
// where the occupancy bitmap marks its slot live. Building the wheel right
// after a fully populated one was freed usually hands it that wheel's
// stale heads, so every never-written slot below sits on garbage.
TEST(TimingWheel, NeverWrittenSlotsAreEmpty) {
  using Wheel = TimingWheel<int>;
  {
    Wheel dirty;
    for (std::uint32_t s = 0; s < Wheel::kSlots; ++s) {
      dirty.schedule(static_cast<Time>(s), static_cast<int>(s));
    }
  }
  Wheel w;
  const auto any = [](int) { return true; };
  std::vector<int> out{99};
  w.drainAt(0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(w.cancel(0, any));
  EXPECT_FALSE(w.cancel(5, any));
  w.drainAt(7, out);
  EXPECT_TRUE(out.empty());

  w.schedule(9, 1);
  w.schedule(9, 2);
  w.schedule(12, 3);
  EXPECT_FALSE(w.cancel(10, any));  // never-written neighbour
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.earliest(), 9);
  w.drainAt(9, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  w.drainAt(11, out);
  EXPECT_TRUE(out.empty());
  w.drainAt(12, out);
  EXPECT_EQ(out, (std::vector<int>{3}));
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.earliest(), kTimeInfinity);
}

// A slot emptied by a drain or by cancelling its last entry keeps a stale
// head; the next entry scheduled into it (same tick or a later lap) must
// start a fresh list.
TEST(TimingWheel, EmptiedSlotsStartFreshLists) {
  const Time lap = static_cast<Time>(TimingWheel<int>::kSlots);
  const auto any = [](int) { return true; };
  TimingWheel<int> w;
  std::vector<int> out;
  w.schedule(3, 1);
  w.drainAt(3, out);
  EXPECT_EQ(out, (std::vector<int>{1}));
  w.schedule(3 + lap, 2);  // same slot, next lap
  w.drainAt(3 + lap, out);
  EXPECT_EQ(out, (std::vector<int>{2}));

  w.schedule(5 + lap, 3);
  EXPECT_TRUE(w.cancel(5 + lap, [](int p) { return p == 3; }));
  EXPECT_FALSE(w.cancel(5 + lap, any));
  w.schedule(5 + lap, 4);
  EXPECT_EQ(w.earliest(), 5 + lap);
  w.drainAt(5 + lap, out);
  EXPECT_EQ(out, (std::vector<int>{4}));
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, RandomizedAgainstReferenceHeap) {
  // 10k random schedule/drain/cancel operations, advancing time like the
  // engine does (always draining at the earliest pending tick).
  TimingWheel<int> w;
  ReferenceQueue ref;
  Rng rng(20'260'808);
  Time now = 0;
  int next_payload = 0;

  for (int step = 0; step < 10'000; ++step) {
    const std::int64_t dice = rng.uniformInt(0, 99);
    if (dice < 55) {
      // Mixed horizon: mostly near, sometimes far beyond the window.
      const Time dt =
          dice < 45 ? rng.uniformInt(0, 299)
                    : rng.uniformInt(0, TimingWheel<int>::kSlots * 4 - 1);
      w.schedule(now + dt, next_payload);
      ref.schedule(now + dt, next_payload);
      ++next_payload;
    } else if (dice < 75 && ref.size() > 0) {
      // Cancel a pseudo-random pending entry.
      const Time t = ref.earliest();
      std::vector<int> peek = ref.drainAt(t);
      for (int p : peek) ref.schedule(t, p);  // put them back
      const int victim = peek[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(peek.size()) - 1))];
      EXPECT_TRUE(w.cancel(t, [&](int p) { return p == victim; }));
      EXPECT_TRUE(ref.cancel(t, victim));
    } else {
      // Advance to the earliest tick and batch-drain it.
      ASSERT_EQ(w.earliest(), ref.earliest());
      if (ref.size() == 0) continue;
      now = ref.earliest();
      std::vector<int> got;
      w.drainAt(now, got);
      std::vector<int> want = ref.drainAt(now);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "divergence at t=" << now;
    }
    ASSERT_EQ(w.size(), ref.size());
  }

  // Drain everything left and compare.
  while (ref.size() > 0) {
    ASSERT_EQ(w.earliest(), ref.earliest());
    now = ref.earliest();
    std::vector<int> got;
    w.drainAt(now, got);
    std::vector<int> want = ref.drainAt(now);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want);
  }
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, ReserveKeepsSchedulingAllocationFree) {
  TimingWheel<int> w;
  w.reserve(64);
  // Churn far more than 64 entries through, but never more than 64 live:
  // the free list must recycle nodes instead of growing storage.
  std::vector<int> out;
  Time now = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      w.schedule(now + 1 + i % 7, i);
    }
    while (!w.empty()) {
      now = w.earliest();
      w.drainAt(now, out);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace mpcp
