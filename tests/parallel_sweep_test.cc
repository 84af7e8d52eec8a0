// exp::ThreadPool / exp::SweepRunner — the parallel experiment runner.
//
// The load-bearing property: every sweep is bit-identical at any thread
// count, because per-seed RNG streams derive from the seed index alone
// and rows land in seed-indexed slots. These tests pin that contract at
// 1, 2, and 8 threads, including per-seed simulation digests and the
// real bench pipeline (acceptanceSweep: generate -> analyze -> simulate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"

namespace mpcp {
namespace {

using bench::AcceptanceResult;
using bench::acceptanceSweep;
using exp::SweepRunner;
using exp::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ZeroAndNegativeIterationCountsAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallelFor(0, [&](std::int64_t) { ++calls; });
  pool.parallelFor(-5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.parallelFor(3, [&](std::int64_t i) {
    seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ClampsNonPositiveThreadCountToOne) {
  EXPECT_EQ(ThreadPool(0).threadCount(), 1);
  EXPECT_EQ(ThreadPool(-3).threadCount(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(100,
                                [](std::int64_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);

  // The pool must survive a throwing batch.
  std::atomic<int> count{0};
  pool.parallelFor(50, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, LowestChunkStartExceptionWins) {
  ThreadPool pool(4);
  // Two iterations throw; the rethrown exception must be the one from the
  // chunk with the lowest start — deterministically the one containing
  // i == 3 (its chunk starts at 0, far below i == 700's).
  try {
    pool.parallelFor(1000, [](std::int64_t i) {
      if (i == 3) throw std::runtime_error("low");
      if (i == 700) throw std::runtime_error("high");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  }
}

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  setenv("MPCP_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
  setenv("MPCP_THREADS", "not-a-number", 1);
  const int fallback = ThreadPool::defaultThreadCount();
  EXPECT_GE(fallback, 1);  // falls back to hardware concurrency
  unsetenv("MPCP_THREADS");
}

TEST(SweepRunner, RngMatchesSerialSeedConvention) {
  // Benches always wrote `Rng rng(base + s)`; rngFor must reproduce that
  // stream exactly.
  for (int s : {0, 1, 17}) {
    Rng expected(12'345 + static_cast<std::uint64_t>(s));
    Rng got = SweepRunner::rngFor(12'345, s);
    for (int draw = 0; draw < 4; ++draw) {
      EXPECT_EQ(got.next(), expected.next());
    }
  }
}

/// FNV-1a over one simulation's observable outcome: finish, blocking and
/// miss bit of every job record, in record order. Any scheduling
/// divergence between two runs changes it.
std::uint64_t scheduleDigest(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(r.jobs.size()));
  for (const JobRecord& jr : r.jobs) {
    mix(static_cast<std::uint64_t>(jr.id.task.value()));
    mix(static_cast<std::uint64_t>(jr.id.instance));
    mix(static_cast<std::uint64_t>(jr.finish));
    mix(static_cast<std::uint64_t>(jr.blocked));
    mix(jr.missed ? 1 : 0);
  }
  return h;
}

TEST(SweepRunner, MapRowsLandInSeedOrderAtAnyThreadCount) {
  auto fn = [](int s, Rng& rng) {
    return rng.next() ^ static_cast<std::uint64_t>(s);
  };
  // A real row: generate a contended 4x3 system and simulate it under
  // MPCP, so the engine itself runs on every pool thread.
  auto simulated = [](int, Rng& rng) {
    WorkloadParams p;
    p.processors = 4;
    p.tasks_per_processor = 3;
    p.utilization_per_processor = 0.45;
    p.global_resources = 2;
    p.max_gcs_per_task = 2;
    p.global_sharing_prob = 0.9;
    p.cs_max = 30;
    return scheduleDigest(simulate(ProtocolKind::kMpcp,
                                   generateWorkload(p, rng),
                                   {.horizon_cap = 300'000,
                                    .record_trace = false}));
  };
  SweepRunner one(1);
  const std::vector<std::uint64_t> expected = one.map(257, 99, fn);
  const std::vector<std::uint64_t> expected_sims =
      one.map(40, 51'000, simulated);
  ASSERT_EQ(expected.size(), 257u);
  ASSERT_EQ(expected_sims.size(), 40u);
  for (int threads : {2, 8}) {
    SweepRunner runner(threads);
    EXPECT_EQ(runner.map(257, 99, fn), expected)
        << "at " << threads << " threads";
    EXPECT_EQ(runner.map(40, 51'000, simulated), expected_sims)
        << "at " << threads << " threads";
  }
}

TEST(SweepRunner, MapWithZeroSeedsReturnsEmpty) {
  SweepRunner runner(2);
  const auto rows =
      runner.map(0, 7, [](int, Rng& rng) { return rng.next(); });
  EXPECT_TRUE(rows.empty());
}

/// End-to-end through the bench pipeline: generate a workload, run the
/// schedulability analyses, simulate accepted systems — identical
/// aggregates at 1, 2, and 8 threads.
TEST(SweepRunner, AcceptanceSweepIsBitIdenticalAcrossThreadCounts) {
  WorkloadParams p;
  p.processors = 4;
  p.tasks_per_processor = 3;
  p.global_resources = 2;
  p.cs_max = 25;
  p.utilization_per_processor = 0.55;
  constexpr int kSeeds = 12;

  SweepRunner serial(1);
  const AcceptanceResult base = acceptanceSweep(
      ProtocolKind::kMpcp, p, kSeeds, 31'000, /*simulate_accepted=*/true,
      &serial);
  EXPECT_EQ(base.runs, kSeeds);

  for (int threads : {2, 8}) {
    SweepRunner runner(threads);
    const AcceptanceResult r = acceptanceSweep(
        ProtocolKind::kMpcp, p, kSeeds, 31'000, true, &runner);
    EXPECT_EQ(r.accepted_rta, base.accepted_rta) << threads << " threads";
    EXPECT_EQ(r.accepted_ll, base.accepted_ll) << threads << " threads";
    EXPECT_EQ(r.sim_miss_given_accept, base.sim_miss_given_accept)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace mpcp
