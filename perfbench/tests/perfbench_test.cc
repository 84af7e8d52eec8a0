// The benchmark's own tests: the tail rule, the timing wrappers'
// transparency, span bookkeeping, and digest stability.
#include <fcntl.h>
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "exec/fabric/work.h"
#include "exec/journal.h"
#include "exec/subprocess.h"
#include "spans.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

std::vector<double> iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string workDir(const std::string& name) {
  const std::string dir = "perfbench_test_work/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(TailPercentile, HighestPercentileWithTenBeyond) {
  std::vector<double> v = iota(100);
  std::reverse(v.begin(), v.end());  // order must not matter
  const Tail t = tailPercentile(v);
  EXPECT_EQ(t.value, 90);
  EXPECT_DOUBLE_EQ(t.percentile, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  const Tail big = tailPercentile(iota(1000));
  EXPECT_EQ(big.value, 990);
  EXPECT_DOUBLE_EQ(big.percentile, 99);
}

TEST(TailPercentile, SmallSamples) {
  const Tail eleven = tailPercentile(iota(11));
  EXPECT_EQ(eleven.value, 1);
  EXPECT_EQ(eleven.beyond, 10u);
  EXPECT_NEAR(eleven.percentile, 100.0 / 11, 1e-12);

  const Tail ten = tailPercentile(iota(10));
  EXPECT_EQ(ten.value, 10);  // no percentile has 10 beyond: the maximum
  EXPECT_EQ(ten.beyond, 0u);

  EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(PhaseResult, KeyLatencyIsBestOverBatches) {
  PhaseResult r;
  r.key_ms = {5, 1, 9};
  r.foldBatch(3, 0, 1, 0);
  EXPECT_TRUE(r.key_ms.empty());
  r.key_ms = {2, 7, 9.5};  // a stall on key 1 does not count
  r.foldBatch(3, 0, 1, 0);
  EXPECT_EQ(r.best_key_ms, (std::vector<double>{2, 1, 9}));
  EXPECT_EQ(r.p50Ms(), 2);
  EXPECT_EQ(r.tailMs().value, 9);
  EXPECT_TRUE(r.errors.empty());

  r.key_ms = {1, 1};
  r.foldBatch(2, 0, 1, 0);
  EXPECT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.best_key_ms.size(), 3u);
}

TEST(PhaseResult, PlaceDependentLatencyTakesTheMedianBatch) {
  PhaseResult r;
  r.per_key_latency = false;
  for (const double scale : {1.0, 3.0, 2.0}) {
    r.key_ms = iota(20);
    for (double& ms : r.key_ms) ms *= scale;
    r.foldBatch(20, 0, 1, 0);
  }
  EXPECT_EQ(r.p50Ms(), 21);  // 10.5 at the median scale, 2
  const Tail t = r.tailMs();
  EXPECT_EQ(t.value, 20);
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 20u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Digest, OrderAndBoundariesMatter) {
  Digest a, b, c;
  a.add("ab");
  a.add("c");
  b.add("a");
  b.add("bc");
  c.add("ab");
  c.add("c");
  EXPECT_NE(a.hex(), b.hex());
  EXPECT_EQ(a.hex(), c.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  { const Scope s(off, "x", 1); }
  EXPECT_EQ(off.open("y", 2), Tracer::kNone);
  EXPECT_EQ(off.size(), 0u);
}

TEST(Tracer, EncodeDecodeRoundTrip) {
  Tracer child(true);
  child.add("ignored", 0, Tracer::kNone, 1, 2);
  const std::int32_t root = child.add("a", 0, Tracer::kNone, 10, 50);
  child.add("b", 0, root, 20, 30);
  const std::string text = child.encode(1);

  Tracer parent(true);
  const std::int32_t top = parent.add("top", 7, Tracer::kNone, 0, 100);
  ASSERT_TRUE(parent.decode(text, top, 7));
  ASSERT_EQ(parent.spans().size(), 3u);
  const Span& a = parent.spans()[1];
  const Span& b = parent.spans()[2];
  EXPECT_EQ(parent.name(a), "a");
  EXPECT_EQ(a.parent, top);
  EXPECT_EQ(b.parent, 1);
  EXPECT_EQ(b.key, 7);
  EXPECT_EQ(b.start_ns, 20);
  EXPECT_FALSE(parent.decode("broken line without tabs\n", top, 7));
  EXPECT_EQ(parent.spans().size(), 3u);
}

TEST(Coverage, FlagsChildrenOutsideTheirParent) {
  Tracer t(true);
  const std::int32_t good = t.add("key", 0, Tracer::kNone, 0, 100);
  t.add("work", 0, good, 0, 60);
  t.add("work", 0, good, 60, 95);
  Coverage c = coverage(t, "key");
  EXPECT_EQ(c.violations, 0u);
  EXPECT_NEAR(c.share(), 0.95, 1e-12);

  // A child that overlaps its sibling and outlives its parent: its timer
  // does not bracket the work it names.
  const std::int32_t bad = t.add("key", 1, Tracer::kNone, 200, 300);
  t.add("work", 1, bad, 200, 260);
  t.add("work", 1, bad, 250, 310);
  c = coverage(t, "key");
  EXPECT_EQ(c.violations, 1u);
}

class ExecutorPassThrough : public ::testing::TestWithParam<bool> {};

TEST_P(ExecutorPassThrough, PayloadsAndErrorsUnchanged) {
  Tracer tracer(GetParam());
  mpcp::exp::InThreadExecutor in_thread;
  mpcp::exec::SubprocessExecutor subprocess;
  for (mpcp::exp::RunExecutor* inner :
       {static_cast<mpcp::exp::RunExecutor*>(&in_thread),
        static_cast<mpcp::exp::RunExecutor*>(&subprocess)}) {
    TimingExecutor timing(*inner, tracer);
    const std::string payload("row,1,2\nsecond line\0binary\x1e", 29);
    const auto ok_body = [&] {
      const Scope s(tracer, "work", -1);
      return payload;
    };
    const mpcp::exp::ExecResult direct = inner->execute(ok_body);
    const mpcp::exp::ExecResult timed = timing.execute(ok_body);
    EXPECT_TRUE(timed.ok);
    EXPECT_EQ(timed.payload, direct.payload);
    EXPECT_EQ(timed.payload, payload);

    const auto bad_body = []() -> std::string {
      throw mpcp::ConfigError("body failed on purpose");
    };
    const mpcp::exp::ExecResult direct_bad = inner->execute(bad_body);
    const mpcp::exp::ExecResult timed_bad = timing.execute(bad_body);
    EXPECT_FALSE(timed_bad.ok);
    EXPECT_EQ(timed_bad.error, direct_bad.error);
    EXPECT_EQ(timed_bad.payload, direct_bad.payload);

    ASSERT_EQ(timing.calls().size(), 2u);
    EXPECT_LE(timing.calls()[0].start_ns, timing.calls()[0].end_ns);
  }
  if (GetParam()) {
    // Both executors shipped the body's span back under exec.body (the
    // third "work" span is the direct in-thread call's).
    EXPECT_EQ(totals(tracer, "exec.execute").count, 2u);
    EXPECT_EQ(totals(tracer, "work").count, 3u);
    EXPECT_GT(coverage(tracer, "exec.body").child_ms, 0);
    EXPECT_EQ(coverage(tracer, "exec.execute").violations, 0u);
    EXPECT_EQ(coverage(tracer, "exec.body").violations, 0u);
  } else {
    EXPECT_EQ(tracer.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(TracedAndUntraced, ExecutorPassThrough,
                         ::testing::Bool());

TEST(TimingJournalIo, JournalBytesUnchanged) {
  const std::string dir = workDir("journal");
  TimingJournalIo io;
  for (const bool timed : {false, true}) {
    const std::string path = dir + (timed ? "/timed.journal" : "/real.journal");
    mpcp::exec::CampaignJournal journal(path, timed ? &io : nullptr);
    journal.append(mpcp::exec::RecordKind::kMeta, "config", "fingerprint x");
    journal.append(mpcp::exec::RecordKind::kStart, "s5", "");
    journal.append(mpcp::exec::RecordKind::kDone, "s5", "5,1,0\nrow");
  }
  EXPECT_EQ(readFile(dir + "/timed.journal"), readFile(dir + "/real.journal"));
  EXPECT_EQ(io.granted_ns.count("s5"), 1u);
  EXPECT_EQ(io.done_ns.count("s5"), 1u);
  EXPECT_LE(io.granted_ns["s5"], io.done_ns["s5"]);
  EXPECT_EQ(io.fsyncs, 3u);
  EXPECT_EQ(io.bytes, readFile(dir + "/real.journal").size());

  mpcp::exec::writeFileAtomic(dir + "/merged", "canonical bytes\n", &io);
  EXPECT_EQ(readFile(dir + "/merged"), "canonical bytes\n");
  EXPECT_GT(io.merge_end_ns, 0);
  EXPECT_LE(io.merge_start_ns, io.merge_end_ns);
}

TEST(TimingJournalIo, ErrorsUnchanged) {
  TimingJournalIo io;
  errno = 0;
  const int fd = io.open("/nonexistent-dir/x.journal",
                         O_WRONLY | O_CREAT | O_APPEND, 0644);
  EXPECT_LT(fd, 0);
  EXPECT_EQ(errno, ENOENT);
  std::string real_error;
  std::string timed_error;
  try {
    mpcp::exec::CampaignJournal j("/nonexistent-dir/x.journal");
  } catch (const mpcp::ConfigError& e) {
    real_error = e.what();
  }
  try {
    mpcp::exec::CampaignJournal j("/nonexistent-dir/x.journal", &io);
  } catch (const mpcp::ConfigError& e) {
    timed_error = e.what();
  }
  EXPECT_FALSE(real_error.empty());
  EXPECT_EQ(timed_error, real_error);
  EXPECT_EQ(io.write(-1, "x", 1), -1);
  EXPECT_EQ(errno, EBADF);
}

class DigestStable : public ::testing::TestWithParam<std::string> {};

// One batch per run (seconds = 0): two in-process runs of a workload
// produce the same digest, and it depends on the seed.
TEST_P(DigestStable, AcrossTwoInProcessRuns) {
  mpcp::exec::fabric::registerSweepFleetBody();
  Options options;
  options.work_dir = workDir(GetParam());
  options.worker_bin = PERFBENCH_WORKER_BIN;
  const auto run = [&](std::uint64_t seed) {
    options.seed = seed;
    Tracer off(false);
    const PhaseResult r = makeWorkload(GetParam())->run(options, off, 0);
    EXPECT_TRUE(r.errors.empty()) << r.errors.front();
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.batches, 1);
    return r.digest;
  };
  const std::string first = run(3);
  EXPECT_EQ(run(3), first);
  EXPECT_NE(run(4), first);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DigestStable,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& param) {
                           std::string name = param.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace perfbench
