#include "exec/fabric/fleet_campaign.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>

#include "common/check.h"
#include "common/strf.h"
#include "exec/campaign.h"
#include "exec/fabric/checkpoint.h"
#include "exec/journal.h"

namespace mpcp::exec::fabric {

namespace {

namespace fs = std::filesystem;

bool isShardJournal(const fs::path& p) {
  return p.extension() == ".journal";
}

}  // namespace

std::string sanitizeWorkerName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "worker" : out;
}

FleetCampaignOutcome runFleetCampaign(int seeds, std::uint64_t seed_base,
                                      const FleetCampaignOptions& options) {
  MPCP_CHECK(!options.fleet.body_spec.empty(),
             "runFleetCampaign needs a body spec");
  const auto n = static_cast<std::size_t>(std::max(0, seeds));
  const bool resume = options.resume || options.takeover;
  FleetCampaignOutcome out;
  out.payloads.resize(n);

  std::ostream* log = options.fleet.log;
  const auto note = [log](const std::string& message) {
    if (log != nullptr) *log << "fleet: " << message << "\n";
  };
  // Disk faults are contained, never fatal: a refused write or sync
  // costs durability (the in-memory result survives and the final merge
  // rewrites everything), not the campaign.
  const auto safeWrite = [&](CampaignJournal* j, RecordKind kind,
                             const std::string& key,
                             const std::string& payload) {
    if (j == nullptr) return;
    try {
      j->write(kind, key, payload);
    } catch (const ConfigError& e) {
      ++out.exec.journal_write_errors;
      note(strf("journal write refused (continuing): ", e.what()));
    }
  };
  const auto safeSync = [&](CampaignJournal* j) {
    if (j == nullptr) return;
    try {
      j->sync();
    } catch (const ConfigError& e) {
      ++out.exec.journal_write_errors;
      note(strf("journal sync refused (continuing): ", e.what()));
    }
  };

  const std::string checkpoint_path =
      options.shard_dir.empty() ? ""
                                : options.shard_dir + "/coordinator.ckpt";

  // Main journal: identical validation rules to runCampaign.
  std::unique_ptr<CampaignJournal> journal;
  std::map<std::string, std::string> completed;
  std::string loaded_meta;
  if (!options.journal_path.empty()) {
    const JournalLoad load = loadJournalFile(options.journal_path);
    if (!load.empty() && !resume) {
      throw ConfigError("journal '" + options.journal_path +
                        "' already has records; pass --resume to continue "
                        "it or remove the file to start over");
    }
    if (resume && !load.meta.empty() &&
        !options.config_fingerprint.empty() &&
        load.meta != options.config_fingerprint) {
      throw ConfigError(
          "journal '" + options.journal_path +
          "' was recorded under a different configuration\n  journal: " +
          load.meta + "\n  current: " + options.config_fingerprint);
    }
    out.exec.journal_corrupt_lines = load.corrupt_lines;
    completed = load.completed();
    loaded_meta = load.meta;
  }

  // Shard overlay (resume) or cleanup (fresh start). Shards carry no
  // meta record — the main journal's fingerprint governs — so a fresh
  // campaign must clear stale shards rather than inherit them.
  if (!options.shard_dir.empty() && fs::is_directory(options.shard_dir)) {
    for (const auto& entry : fs::directory_iterator(options.shard_dir)) {
      if (!entry.is_regular_file() || !isShardJournal(entry.path())) {
        continue;
      }
      if (!resume) {
        std::error_code ec;
        fs::remove(entry.path(), ec);
        continue;
      }
      const JournalLoad shard = loadJournalFile(entry.path().string());
      out.exec.journal_corrupt_lines += shard.corrupt_lines;
      for (const JournalRecord& rec : shard.records) {
        if (rec.kind == RecordKind::kDone) completed[rec.key] = rec.payload;
      }
    }
  }

  // Takeover: adopt the dead coordinator's attempt bookkeeping. The
  // shards above already gave us its completed work; the checkpoint gives
  // us what it *charged*, so a poison key cannot restart from zero after
  // every coordinator death.
  std::map<std::string, int> initial_attempts;
  if (options.takeover && !checkpoint_path.empty()) {
    CoordinatorCheckpoint ckpt;
    if (loadCheckpoint(checkpoint_path, ckpt)) {
      if (!options.config_fingerprint.empty() && !ckpt.fingerprint.empty() &&
          ckpt.fingerprint != options.config_fingerprint) {
        throw ConfigError(
            "checkpoint '" + checkpoint_path +
            "' was written under a different configuration\n  checkpoint: " +
            ckpt.fingerprint + "\n  current: " + options.config_fingerprint);
      }
      initial_attempts = ckpt.attempts;
      note(strf("takeover: adopted checkpoint with ", ckpt.attempts.size(),
                " attempt record(s), ", ckpt.in_flight.size(),
                " key(s) in flight at the old coordinator's death"));
    } else {
      note(strf("takeover: no usable checkpoint at ", checkpoint_path,
                "; resuming from journals alone"));
    }
  } else if (options.takeover) {
    note("takeover: no shard dir, so no checkpoint; resuming from journals");
  }

  if (!options.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(options.journal_path,
                                                options.journal_io);
    if (loaded_meta.empty() && !options.config_fingerprint.empty()) {
      safeWrite(journal.get(), RecordKind::kMeta, "config",
                options.config_fingerprint);
      safeSync(journal.get());
    }
  }

  // Satisfy already-completed seeds; collect the rest as fleet keys.
  std::vector<std::string> keys;
  std::map<std::string, int> seed_of;
  for (int s = 0; s < seeds; ++s) {
    const std::string key = runKey(seed_base, s);
    seed_of[key] = s;
    const auto it = completed.find(key);
    if (it != completed.end()) {
      out.payloads[static_cast<std::size_t>(s)] = it->second;
      ++out.exec.resumed_skips;
    } else {
      keys.push_back(key);
    }
  }

  if (!keys.empty()) {
    std::map<std::string, std::unique_ptr<CampaignJournal>> shards;
    const auto shardFor =
        [&](const std::string& worker) -> CampaignJournal* {
      if (options.shard_dir.empty()) return nullptr;
      auto& slot = shards[worker];
      if (!slot) {
        try {
          slot = std::make_unique<CampaignJournal>(
              options.shard_dir + "/" + sanitizeWorkerName(worker) +
                  ".journal",
              options.journal_io);
        } catch (const ConfigError& e) {
          ++out.exec.journal_write_errors;
          note(strf("cannot open shard journal (continuing): ", e.what()));
          return nullptr;
        }
      }
      return slot.get();
    };

    FleetConfig fleet = options.fleet;
    fleet.fingerprint = options.config_fingerprint;
    fleet.shard_dir = options.shard_dir;
    fleet.checkpoint_path = checkpoint_path;
    fleet.initial_attempts = initial_attempts;
    fleet.on_grant = [&](const std::string& key) {
      safeWrite(journal.get(), RecordKind::kStart, key, "");
      ++out.exec.dispatched;
    };
    fleet.on_result = [&](const FleetResult& r) {
      safeWrite(shardFor(r.worker), RecordKind::kDone, r.key, r.payload);
      const auto it = seed_of.find(r.key);
      MPCP_CHECK(it != seed_of.end(),
                 "fleet returned unknown key '" << r.key << "'");
      out.payloads[static_cast<std::size_t>(it->second)] = r.payload;
      ++out.exec.completed;
    };
    fleet.on_fail = [&](const std::string& key, const std::string& error) {
      safeWrite(journal.get(), RecordKind::kFail, key, error);
      const auto it = seed_of.find(key);
      MPCP_CHECK(it != seed_of.end(),
                 "fleet failed unknown key '" << key << "'");
      exp::RunFailure failure;
      failure.seed = it->second;
      failure.error = error;
      out.failures.push_back(std::move(failure));
      ++out.exec.failed;
    };
    fleet.on_commit = [&] {
      safeSync(journal.get());
      for (const auto& [worker, shard] : shards) safeSync(shard.get());
    };

    const FleetOutcome fo = runFleet(keys, fleet);
    out.fleet = fo.counters;
    out.interrupted = fo.interrupted;
  }

  std::sort(out.failures.begin(), out.failures.end(),
            [](const exp::RunFailure& a, const exp::RunFailure& b) {
              return a.seed < b.seed;
            });

  // Canonical merge: with every key done, rewrite the main journal as
  // the exact byte stream a serial journaled run would have produced.
  if (journal && !out.interrupted && out.failures.empty() &&
      out.complete()) {
    std::string canonical;
    if (!options.config_fingerprint.empty()) {
      canonical += formatRecord(RecordKind::kMeta, "config",
                                options.config_fingerprint);
    }
    for (int s = 0; s < seeds; ++s) {
      const std::string key = runKey(seed_base, s);
      canonical += formatRecord(RecordKind::kStart, key, "");
      canonical += formatRecord(
          RecordKind::kDone, key,
          *out.payloads[static_cast<std::size_t>(s)]);
    }
    journal.reset();  // close the append fd before replacing the file
    try {
      writeFileAtomic(options.journal_path, canonical, options.journal_io);
    } catch (const ConfigError& e) {
      // Contained like any other disk fault: the append-order journal
      // (plus shards) still resumes correctly; only canonical byte
      // identity is lost until a later run merges successfully.
      ++out.exec.journal_write_errors;
      note(strf("canonical journal merge failed (continuing): ", e.what()));
    }
  }

  return out;
}

}  // namespace mpcp::exec::fabric
