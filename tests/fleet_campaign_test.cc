// runFleetCampaign merge + resume semantics (ISSUE 9): the canonical
// journal rewritten after a fleet campaign is byte-identical to what a
// serial journaled run would have produced, resume unions the main
// journal with every worker shard, and journal misuse is refused with
// the same rules as runCampaign. All tests run in degraded (local-drain)
// mode — no sockets, no forked workers — so they are fast and hermetic;
// the socketed paths are covered by fabric_fleet_test and the CLI smokes.
#include "exec/fabric/fleet_campaign.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "exec/fabric/checkpoint.h"
#include "exec/fabric/work.h"
#include "exec/fabric/worker.h"
#include "exec/journal.h"

namespace mpcp::exec::fabric {
namespace {

namespace fs = std::filesystem;

std::string tempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/mpcp_fleet_campaign_" + name +
                          "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string payloadFor(const std::string& key) { return key + ",row-bytes"; }

// A campaign that always degrades to the in-process drain: nothing
// listens for workers (spawn_workers == 0) and the no-live-workers grace
// is near zero.
FleetCampaignOptions degradedOptions(const std::string& dir, int* executions) {
  FleetCampaignOptions o;
  o.journal_path = dir + "/campaign.journal";
  o.config_fingerprint = "fleet-test-v1";
  o.shard_dir = dir;
  o.fleet.listen = "unix:" + dir + "/fleet.sock";
  o.fleet.spawn_workers = 0;
  o.fleet.body_spec = "test-v1";
  o.fleet.timing.degrade_after_ms = 100;
  o.fleet.timing.poll_ms = 10;
  o.fleet.local_fn = [executions](const std::string& key) {
    if (executions != nullptr) ++*executions;
    FleetResult r;
    r.key = key;
    r.ok = true;
    r.payload = payloadFor(key);
    return r;
  };
  return o;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The exact byte stream a serial `runCampaign` with a journal writes for
// this campaign: meta, then start/done per seed in order.
std::string serialJournalBytes(int seeds, std::uint64_t base) {
  std::string bytes =
      formatRecord(RecordKind::kMeta, "config", "fleet-test-v1");
  for (int s = 0; s < seeds; ++s) {
    const std::string key = std::string("s").append(std::to_string(base + s));
    bytes += formatRecord(RecordKind::kStart, key, "");
    bytes += formatRecord(RecordKind::kDone, key, payloadFor(key));
  }
  return bytes;
}

TEST(FleetCampaign, DegradedRunCompletesAndMergesCanonicalBytes) {
  const std::string dir = tempDir("merge");
  int executions = 0;
  const FleetCampaignOptions o = degradedOptions(dir, &executions);

  const FleetCampaignOutcome out = runFleetCampaign(4, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_FALSE(out.interrupted);
  EXPECT_EQ(executions, 4);
  EXPECT_EQ(out.fleet.degraded_local_runs, 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(*out.payloads[static_cast<std::size_t>(s)],
              payloadFor("s" + std::to_string(100 + s)));
  }
  // Byte-identical to the serial journaled run, not merely equivalent.
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(4, 100));
}

TEST(FleetCampaign, ResumeReusesDoneRowsWithoutReExecuting) {
  const std::string dir = tempDir("resume");
  int executions = 0;
  FleetCampaignOptions o = degradedOptions(dir, &executions);

  ASSERT_TRUE(runFleetCampaign(3, 100, o).complete());
  EXPECT_EQ(executions, 3);

  o.resume = true;
  const FleetCampaignOutcome second = runFleetCampaign(3, 100, o);
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(executions, 3) << "resume must not re-execute done runs";
  EXPECT_EQ(second.exec.resumed_skips, 3u);
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(3, 100));
}

TEST(FleetCampaign, RefusesPopulatedJournalWithoutResume) {
  const std::string dir = tempDir("no_resume");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  ASSERT_TRUE(runFleetCampaign(2, 100, o).complete());
  EXPECT_THROW((void)runFleetCampaign(2, 100, o), ConfigError);
}

TEST(FleetCampaign, RefusesFingerprintMismatchOnResume) {
  const std::string dir = tempDir("fp_mismatch");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  ASSERT_TRUE(runFleetCampaign(2, 100, o).complete());
  o.resume = true;
  o.config_fingerprint = "fleet-test-v2";
  EXPECT_THROW((void)runFleetCampaign(2, 100, o), ConfigError);
}

TEST(FleetCampaign, ResumeOverlaysWorkerShardJournals) {
  const std::string dir = tempDir("shard_overlay");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);

  // Simulate a coordinator killed before the canonical merge: the main
  // journal has only the fingerprint and an in-flight start, while a
  // worker shard holds the completed row.
  {
    std::ofstream main(o.journal_path, std::ios::binary);
    main << formatRecord(RecordKind::kMeta, "config", "fleet-test-v1");
    main << formatRecord(RecordKind::kStart, "s100", "");
  }
  {
    std::ofstream shard(dir + "/w1.journal", std::ios::binary);
    shard << formatRecord(RecordKind::kDone, "s100", payloadFor("s100"));
  }

  int executions = 0;
  o.fleet.local_fn = [&executions](const std::string& key) {
    ++executions;
    EXPECT_NE(key, "s100") << "shard-completed key must not re-run";
    FleetResult r;
    r.key = key;
    r.ok = true;
    r.payload = payloadFor(key);
    return r;
  };
  o.resume = true;
  const FleetCampaignOutcome out = runFleetCampaign(2, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(*out.payloads[0], payloadFor("s100"));
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(2, 100));
}

TEST(FleetCampaign, FreshRunDeletesStaleShards) {
  const std::string dir = tempDir("stale_shards");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  // A stale shard from an unrelated earlier campaign must not leak rows
  // into a fresh (non-resume) run.
  {
    std::ofstream shard(dir + "/old.journal", std::ios::binary);
    shard << formatRecord(RecordKind::kDone, "s100", "stale-bytes");
  }
  const FleetCampaignOutcome out = runFleetCampaign(2, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(*out.payloads[0], payloadFor("s100"));
  EXPECT_FALSE(fs::exists(dir + "/old.journal"));
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(2, 100));
}

TEST(FleetCampaign, PermanentFailureIsJournaledAndSorted) {
  const std::string dir = tempDir("perma_fail");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  o.fleet.local_fn = [](const std::string& key) {
    FleetResult r;
    r.key = key;
    if (key == "s101") {
      r.ok = false;
      r.payload = "body exploded";
    } else {
      r.ok = true;
      r.payload = payloadFor(key);
    }
    return r;
  };
  const FleetCampaignOutcome out = runFleetCampaign(3, 100, o);
  EXPECT_FALSE(out.complete());
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].seed, 1);  // runCampaign convention: the index s
  EXPECT_NE(out.failures[0].error.find("body exploded"), std::string::npos);
  // Incomplete campaigns keep the incremental journal (no canonical
  // rewrite) so a later resume still sees the fail record.
  const JournalLoad load = loadJournalFile(o.journal_path);
  bool saw_fail = false;
  for (const auto& rec : load.records) {
    saw_fail |= rec.kind == RecordKind::kFail && rec.key == "s101";
  }
  EXPECT_TRUE(saw_fail);
}

// --- coordinator checkpoint + takeover (ISSUE 10) ------------------------

TEST(FleetCampaign, TakeoverAdoptsCheckpointAttemptCounts) {
  const std::string dir = tempDir("takeover");
  int executions = 0;
  FleetCampaignOptions o = degradedOptions(dir, &executions);

  // A predecessor coordinator died mid-campaign: the journal knows the
  // campaign started, and the checkpoint knows s100 already burned its
  // whole attempt budget (default max_attempts = 3).
  {
    std::ofstream main(o.journal_path, std::ios::binary);
    main << formatRecord(RecordKind::kMeta, "config", "fleet-test-v1");
    main << formatRecord(RecordKind::kStart, "s100", "");
  }
  CoordinatorCheckpoint ckpt;
  ckpt.fingerprint = "fleet-test-v1";
  ckpt.attempts["s100"] = 3;
  ckpt.in_flight.insert("s100");
  saveCheckpoint(dir + "/coordinator.ckpt", ckpt);

  o.takeover = true;
  const FleetCampaignOutcome out = runFleetCampaign(2, 100, o);
  EXPECT_FALSE(out.complete());
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].seed, 0);
  EXPECT_NE(out.failures[0].error.find("attempt budget"), std::string::npos)
      << out.failures[0].error;
  // The healthy key still ran; the exhausted one did not re-execute.
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(*out.payloads[1], payloadFor("s101"));
}

TEST(FleetCampaign, TakeoverRefusesForeignCheckpoint) {
  const std::string dir = tempDir("takeover_fp");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  {
    std::ofstream main(o.journal_path, std::ios::binary);
    main << formatRecord(RecordKind::kMeta, "config", "fleet-test-v1");
  }
  CoordinatorCheckpoint ckpt;
  ckpt.fingerprint = "some-other-campaign";
  saveCheckpoint(dir + "/coordinator.ckpt", ckpt);
  o.takeover = true;
  EXPECT_THROW((void)runFleetCampaign(2, 100, o), ConfigError);
}

TEST(FleetCampaign, TakeoverWithCorruptCheckpointFallsBackToResume) {
  const std::string dir = tempDir("takeover_corrupt");
  int executions = 0;
  FleetCampaignOptions o = degradedOptions(dir, &executions);
  {
    std::ofstream main(o.journal_path, std::ios::binary);
    main << formatRecord(RecordKind::kMeta, "config", "fleet-test-v1");
  }
  {
    std::ofstream bad(dir + "/coordinator.ckpt", std::ios::binary);
    bad << "not a checkpoint at all\n";
  }
  o.takeover = true;
  const FleetCampaignOutcome out = runFleetCampaign(2, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(2, 100));
}

TEST(FleetCampaign, CleanCompletionRemovesTheCheckpoint) {
  const std::string dir = tempDir("ckpt_cleanup");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  ASSERT_TRUE(runFleetCampaign(2, 100, o).complete());
  EXPECT_FALSE(fs::exists(dir + "/coordinator.ckpt"));
}

// --- disk-fault containment (ISSUE 10) -----------------------------------

TEST(FleetCampaign, ShardDiskFaultsAreContainedAndMergeStaysCanonical) {
  const std::string dir = tempDir("disk_fault");
  int executions = 0;
  FleetCampaignOptions o = degradedOptions(dir, &executions);
  // The degraded drain journals results to the "local" worker's shard;
  // break exactly that file (ENOSPC on every byte) while the main
  // journal and the canonical merge stay healthy.
  FaultyJournalIo io;
  io.budget_bytes = 0;
  io.path_filter = "local.journal";
  o.journal_io = &io;

  const FleetCampaignOutcome out = runFleetCampaign(3, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(executions, 3);
  EXPECT_GE(out.exec.journal_write_errors, 1u);
  // Durability was lost, correctness was not: in-memory results survive
  // and the final merge rewrites the canonical bytes.
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(3, 100));
}

TEST(FleetCampaign, ShardFsyncFailuresAreContainedAndMergeStaysCanonical) {
  const std::string dir = tempDir("shard_fsync");
  int executions = 0;
  FleetCampaignOptions o = degradedOptions(dir, &executions);
  FaultyJournalIo io;
  io.fsync_failures_after = 0;  // every commit of the shard fails
  io.path_filter = "local.journal";
  o.journal_io = &io;

  const FleetCampaignOutcome out = runFleetCampaign(3, 100, o);
  ASSERT_TRUE(out.complete());
  EXPECT_EQ(executions, 3);
  EXPECT_GE(io.fsync_errors, 1u);
  EXPECT_EQ(out.exec.journal_write_errors, io.fsync_errors);
  EXPECT_EQ(readFile(o.journal_path), serialJournalBytes(3, 100));
}

// --- group commit over real worker links ---------------------------------

TEST(FleetCampaign, GroupCommitSyncsLessThanOncePerRecord) {
  static const bool registered = [] {
    registerFleetBodyKind("fc-commit-v1", [](const std::string&) {
      return FleetBodyFn([](const std::string& key) {
        FleetResult r;
        r.key = key;
        r.ok = true;
        r.payload = payloadFor(key);
        return r;
      });
    });
    return true;
  }();
  (void)registered;

  const std::string dir = tempDir("group_commit");
  FleetCampaignOptions o = degradedOptions(dir, nullptr);
  o.fleet.body_spec = "fc-commit-v1";
  o.fleet.timing.degrade_after_ms = 60000;  // the workers below must run it
  o.fleet.timing.heartbeat_ms = 100;
  o.fleet.local_fn = nullptr;
  FaultyJournalIo io;  // no faults armed: counts only
  o.journal_io = &io;

  const int seeds = 256;
  std::vector<std::thread> workers;
  for (const char* name : {"a", "b"}) {
    workers.emplace_back([&o, name] {
      WorkerConfig w;
      w.connect = o.fleet.listen;
      w.name = name;
      w.heartbeat_ms = 100;
      (void)runWorker(w);
    });
  }
  const FleetCampaignOutcome out = runFleetCampaign(seeds, 100, o);
  for (std::thread& t : workers) t.join();

  ASSERT_TRUE(out.complete());
  EXPECT_EQ(out.fleet.degraded_local_runs, 0u);
  const std::string merged = readFile(o.journal_path);
  EXPECT_EQ(merged, serialJournalBytes(seeds, 100));
  const std::size_t records = parseJournal(merged).records.size();
  EXPECT_EQ(records, 1u + 2u * seeds);
  // One write per record (plus the merge's one write); the syncs are
  // shared by every record a lease or a loop pass produced.
  EXPECT_GE(io.writes, records + 1);
  EXPECT_LT(io.fsyncs, records);
}

TEST(FleetCampaign, SanitizesWorkerNamesForShardPaths) {
  EXPECT_EQ(sanitizeWorkerName("w1"), "w1");
  EXPECT_EQ(sanitizeWorkerName("node-3.local_9"), "node-3.local_9");
  EXPECT_EQ(sanitizeWorkerName("../evil/../../name"), ".._evil_.._.._name");
  EXPECT_EQ(sanitizeWorkerName(""), "worker");
}

}  // namespace
}  // namespace mpcp::exec::fabric
