// runFleetCampaign — the distributed sibling of exec::runCampaign
// (ISSUE 9): shards a seed range across a worker fleet and merges the
// per-worker journal shards into one stream byte-identical to a serial
// journaled run.
//
// Journal layout during a fleet campaign:
//   * the *main* journal gets the `meta` fingerprint plus `start`
//     records on every lease grant (crash forensics: which keys were in
//     flight when the coordinator died) and `fail` records for
//     permanent failures;
//   * each worker gets its own shard journal
//     `<shard_dir>/<worker>.journal` holding only its `done` records —
//     workers never contend on one fd, and a torn shard tail costs at
//     most that worker's last record;
//   * records are written without a sync and made durable at the
//     coordinator's four commit points (coordinator.h): before each
//     LEASE is sent, before each degraded in-process key runs, once per
//     loop pass before the checkpoint, and before runFleet returns. A
//     commit syncs the main journal and every shard with pending
//     records, so a lease of 64 starts costs one fsync, not 64.
//
// Merge contract: when every key completes, the main journal is
// atomically rewritten (tmp + fsync + rename) as the canonical stream —
// meta, then start/done per key in seed order, using the exact
// formatRecord bytes CampaignJournal::append would have written. The
// result is byte-identical to `mpcp_cli sweep` run serially with
// MPCP_THREADS=1 and a journal, regardless of worker count, steals,
// reaps, crashes, or resume history.
//
// Resume contract: completed keys are the union of the main journal's
// `done` records and every shard's — a coordinator killed -9 mid-merge
// or mid-campaign resumes from the shards without re-running anything
// that finished.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/fabric/coordinator.h"
#include "exec/journal.h"
#include "exp/sweep_runner.h"
#include "obs/counters.h"

namespace mpcp::exec::fabric {

struct FleetCampaignOptions {
  /// Main journal; empty = no journal (results still flow, no resume).
  std::string journal_path;
  bool resume = false;
  /// Coordinator takeover (ISSUE 10): implies resume, and additionally
  /// loads `<shard_dir>/coordinator.ckpt` — the attempt counts the dead
  /// coordinator had charged — so in-flight keys are not re-run from a
  /// clean slate and exhausted keys fail immediately instead of reaping
  /// the new fleet. A missing/corrupt checkpoint degrades to a plain
  /// resume; a checkpoint from a different fingerprint is a ConfigError.
  bool takeover = false;
  std::string config_fingerprint;
  /// Shard directory: worker journals, worker logs, and (for a unix
  /// listen address) the default socket live here. Must be writable.
  /// Non-empty also enables periodic coordinator checkpoints there.
  std::string shard_dir;
  /// Disk seam for every journal/checkpoint/merge byte (ISSUE 10); null =
  /// real syscalls. Injected faults are contained: failed writes and
  /// syncs bump exec.journal_write_errors and the campaign carries on —
  /// results stay in memory and the final merge still writes the
  /// canonical stream.
  JournalIo* journal_io = nullptr;
  /// Fleet topology + timing. body_spec must be set; fingerprint and
  /// shard_dir are filled in from the fields above.
  FleetConfig fleet;
};

struct FleetCampaignOutcome {
  /// payloads[s] is empty exactly when seed s failed permanently or was
  /// never finished (interrupt / degraded abort).
  std::vector<std::optional<std::string>> payloads;
  std::vector<exp::RunFailure> failures;  ///< sorted by seed
  obs::ExecutorCounters exec;
  obs::FleetCounters fleet;
  bool interrupted = false;

  [[nodiscard]] bool complete() const {
    for (const auto& p : payloads) {
      if (!p.has_value()) return false;
    }
    return true;
  }
};

/// Runs keys s<seed_base>..s<seed_base+seeds-1> through the fleet.
/// Throws ConfigError on journal misuse (same rules as runCampaign).
[[nodiscard]] FleetCampaignOutcome runFleetCampaign(
    int seeds, std::uint64_t seed_base, const FleetCampaignOptions& options);

/// File-name-safe form of a worker name (shard + log paths).
[[nodiscard]] std::string sanitizeWorkerName(const std::string& name);

}  // namespace mpcp::exec::fabric
