#include "fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <system_error>

#include <charconv>

#include "common/check.h"
#include "common/strf.h"
#include "exec/fabric/coordinator.h"
#include "exec/interrupt.h"
#include "exec/journal.h"
#include "exp/sweep_runner.h"
#include "fuzz/fleet.h"
#include "fuzz/repro.h"
#include "fuzz/shrink.h"
#include "model/serialize.h"

namespace mpcp::fuzz {

namespace {

/// One fuzz run: generate, oracle-check, return the failures (usually
/// none). Runs on a SweepRunner worker; must stay self-contained.
struct RunRow {
  bool generated = false;
  bool skipped = false;  ///< campaign resume: journal already has this key
  bool not_run = false;  ///< interrupt raised before this run started
  std::vector<OracleFailure> failures;
  std::string system_text;      ///< serialized system when failures exist
  std::string fault_plan_text;  ///< formatPlan() in fault mode, same gate
};

std::string sanitizeForFilename(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  return s;
}

/// Canonical campaign journal key for run index i.
std::string fuzzRunKey(int index) { return strf("r", index); }

/// Inverse of fuzzRunKey; false for anything else.
bool parseFuzzRunKey(const std::string& key, int& index) {
  if (key.size() < 2 || key[0] != 'r') return false;
  const char* end = key.data() + key.size();
  const auto [ptr, ec] = std::from_chars(key.data() + 1, end, index);
  return ec == std::errc() && ptr == end;
}

/// Everything that shapes what a run index produces goes into the
/// fingerprint; --runs, the time budget, and output paths deliberately
/// not (extending a campaign with more runs is the point of resuming).
std::string campaignFingerprint(const FuzzOptions& o) {
  std::string protocols;
  for (const std::string& p : o.protocols) {
    protocols += p;
    protocols += ',';
  }
  return strf("fuzz-v1 seed=", o.seed, " protocols=", protocols,
              " mutation=", toString(o.mutation),
              " horizon-cap=", o.horizon_cap,
              " differential-horizon=", o.differential_horizon,
              " shrink=", o.shrink ? 1 : 0,
              " max-shrink=", o.max_shrink_evaluations,
              " faults=", o.faults ? 1 : 0, " fault-count=", o.fault_count,
              " fault-grace=", o.fault_grace,
              " fault-watchdog=", o.fault_watchdog);
}

}  // namespace

std::string findingSignature(const std::string& protocol,
                             const std::string& oracle,
                             const std::string& system_text) {
  // FNV-1a 64-bit over the (shrunk) system text.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : system_text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return strf(protocol, ':', oracle, '@', hex);
}

WorkloadParams drawWorkloadParams(Rng& rng) {
  WorkloadParams p;
  p.processors = 2 + static_cast<int>(rng.uniformInt(0, 2));
  p.tasks_per_processor = 2 + static_cast<int>(rng.uniformInt(0, 2));
  p.utilization_per_processor = rng.uniformReal(0.25, 0.7);
  p.global_resources = 1 + static_cast<int>(rng.uniformInt(0, 2));
  p.max_gcs_per_task = 1 + static_cast<int>(rng.uniformInt(0, 2));
  p.global_sharing_prob = rng.uniformReal(0.4, 0.95);
  p.local_resources_per_processor = static_cast<int>(rng.uniformInt(0, 2));
  p.max_lcs_per_task = 1;
  p.local_sharing_prob = rng.uniformReal(0.0, 0.8);
  p.cs_min = 1;
  p.cs_max = 2 + rng.uniformInt(0, 28);
  p.suspension_prob = rng.chance(0.4) ? rng.uniformReal(0.1, 0.5) : 0.0;
  if (rng.chance(0.35)) {
    // "Differential profile": short periods so the tick-stepped reference
    // oracle's horizon covers several hyperperiods of real contention.
    p.period_min = 20;
    p.period_max = 200;
    p.period_granularity = 5;
  } else {
    p.period_min = 1'000;
    p.period_max = 20'000;
    p.period_granularity = 1'000;  // keeps auto horizons simulable
  }
  return p;
}

FuzzReport runFuzz(const FuzzOptions& options, std::ostream& log) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  OracleOptions oracle_options;
  oracle_options.protocols = options.protocols;
  oracle_options.mutation = options.mutation;
  oracle_options.horizon_cap = options.horizon_cap;
  oracle_options.differential_horizon = options.differential_horizon;

  FaultOracleOptions fault_options;
  fault_options.horizon_cap = options.horizon_cap;
  fault_options.differential_horizon = options.differential_horizon;
  fault_options.grace = options.fault_grace;
  fault_options.watchdog_timeout = options.fault_watchdog;

  exp::SweepRunner& runner = exp::SweepRunner::global();
  FuzzReport report;

  // Campaign mode: load the journal, refuse config mismatches, and seed
  // the crash-signature set from findings recorded by previous runs.
  const bool campaign = !options.campaign_path.empty();
  std::unique_ptr<exec::CampaignJournal> journal;
  std::set<std::string> done_keys;
  std::set<std::string> seen_signatures;
  if (campaign) {
    const exec::JournalLoad loaded =
        exec::loadJournalFile(options.campaign_path);
    report.journal_corrupt_lines = loaded.corrupt_lines;
    const std::string fingerprint = campaignFingerprint(options);
    if (!loaded.empty()) {
      if (!options.resume) {
        throw ConfigError("campaign journal '" + options.campaign_path +
                          "' already has records; pass --resume to continue "
                          "it or remove the file to start over");
      }
      if (loaded.meta != fingerprint) {
        throw ConfigError("campaign journal '" + options.campaign_path +
                          "' was recorded under a different configuration");
      }
    }
    for (const auto& [key, payload] : loaded.completed()) {
      done_keys.insert(key);
      // Payloads: "clean", "overflow", "finding <sig>[ dup]".
      if (payload.rfind("finding ", 0) == 0) {
        std::string sig = payload.substr(8);
        const bool dup = sig.size() > 4 && sig.ends_with(" dup");
        if (dup) sig.resize(sig.size() - 4);
        seen_signatures.insert(sig);
        if (!dup) ++report.previous_findings;
      }
    }
    journal = std::make_unique<exec::CampaignJournal>(options.campaign_path);
    if (loaded.empty()) {
      journal->append(exec::RecordKind::kMeta, "config", fingerprint);
    }
  }

  // Folds one executed run into the report: journal it, shrink, dedupe
  // by signature, write the repro. Shared between the serial batch loop
  // and the fleet path, both in run order. The journal record is written
  // here and synced by the caller: after every fold in the serial loop,
  // at the coordinator's commit points in the fleet.
  const auto foldRow = [&](int run_index, const RunRow& row) {
    const std::string key = fuzzRunKey(run_index);
    const auto record = [&](const std::string& payload) {
      if (journal) journal->write(exec::RecordKind::kDone, key, payload);
    };
    ++report.runs_executed;
    if (row.failures.empty()) {
      record("clean");
      return;
    }
    ++report.systems_with_findings;
    // Every distinct protocol:oracle the run tripped, in first-seen order.
    std::vector<std::string> oracles;
    for (const OracleFailure& f : row.failures) {
      std::string name = f.protocol + ":" + f.oracle;
      if (std::find(oracles.begin(), oracles.end(), name) != oracles.end()) {
        continue;
      }
      ++report.oracle_runs[name];
      oracles.push_back(std::move(name));
    }
    if (static_cast<int>(report.findings.size()) >= options.max_findings) {
      // Keep counting, stop shrinking/writing. "overflow" (not "clean")
      // so the journal never claims a finding-bearing run was clean.
      record("overflow");
      return;
    }

    FuzzFinding finding;
    finding.run_index = run_index;
    finding.derived_seed =
        options.seed + static_cast<std::uint64_t>(run_index);
    finding.failure = row.failures.front();
    log << "FINDING run=" << finding.run_index
        << " seed=" << finding.derived_seed << " oracles=";
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      log << (i == 0 ? "" : ",") << oracles[i];
    }
    log << " [" << finding.failure.protocol << "] " << finding.failure.oracle
        << ": " << finding.failure.details << "\n";

    TaskSystem sys = parseTaskSystemFromString(row.system_text);
    finding.tasks_before = static_cast<int>(sys.tasks().size());

    if (options.shrink && row.fault_plan_text.empty()) {
      OracleOptions shrink_options = oracle_options;
      shrink_options.protocols = {finding.failure.protocol};
      const std::string target_oracle = finding.failure.oracle;
      const auto still_violates = [&](const TaskSystem& candidate) {
        for (const OracleFailure& f :
             checkSystem(candidate, shrink_options)) {
          if (f.oracle == target_oracle) return true;
        }
        return false;
      };
      // The recorded failure came from the full-oracle pass; re-check
      // under the narrowed protocol set before shrinking against it.
      if (still_violates(sys)) {
        const ShrinkResult shrunk = shrinkSystem(
            sys, still_violates, options.max_shrink_evaluations);
        finding.shrink_evaluations = shrunk.evaluations;
        sys = shrunk.system;
        log << "  shrunk " << finding.tasks_before << " -> "
            << sys.tasks().size() << " tasks in " << shrunk.evaluations
            << " evaluations" << (shrunk.hit_budget ? " (budget hit)" : "")
            << "\n";
      }
    }
    finding.tasks_after = static_cast<int>(sys.tasks().size());

    // Campaign dedupe: a signature seen earlier in this campaign (or in
    // a previous run of it) is the same bug rediscovered — count it,
    // journal it, but don't write another repro file.
    std::string signature;
    if (campaign) {
      signature =
          findingSignature(finding.failure.protocol, finding.failure.oracle,
                           serializeTaskSystemToString(sys));
      if (!seen_signatures.insert(signature).second) {
        ++report.duplicate_findings;
        log << "  duplicate of known finding " << signature
            << " (repro not re-written)\n";
        record("finding " + signature + " dup");
        return;
      }
    }

    ReproCase repro;
    repro.protocol = finding.failure.protocol;
    repro.oracle = finding.failure.oracle;
    repro.mutation = options.mutation;
    repro.seed = finding.derived_seed;
    repro.horizon_cap = options.horizon_cap;
    repro.differential_horizon = options.differential_horizon;
    repro.fault_plan = row.fault_plan_text;
    repro.fault_grace = options.fault_grace;
    repro.fault_watchdog = options.fault_watchdog;
    repro.system = sys;
    finding.repro_text = writeRepro(repro);

    const std::string dir =
        options.corpus_dir.empty() ? "." : options.corpus_dir;
    std::error_code ec;  // best-effort; the open below reports failure
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        strf(dir, "/repro-seed", finding.derived_seed, "-",
             sanitizeForFilename(finding.failure.protocol), "-",
             sanitizeForFilename(finding.failure.oracle), ".repro");
    std::ofstream out(path);
    out << finding.repro_text;
    out.flush();
    if (out) {
      finding.repro_path = path;
      log << "  wrote " << path << "\n";
    } else {
      log << "  warning: could not write " << path << "\n";
    }
    record("finding " + signature);
    report.findings.push_back(std::move(finding));
  };

  // Fleet mode: hand the pending run indices to the campaign fabric.
  // Workers execute generate+oracles; every result folds here, so the
  // journal/dedupe/repro behavior matches the serial path.
  if (options.fleet_workers > 0 || !options.fleet_listen.empty()) {
    registerFuzzFleetBody();
    std::vector<int> runs;
    std::vector<std::string> keys;
    for (int i = 0; i < options.runs; ++i) {
      const std::string key = fuzzRunKey(i);
      if (done_keys.count(key) != 0) {
        ++report.resumed_skips;
        continue;
      }
      runs.push_back(i);
      keys.push_back(key);
    }

    // Results arrive in completion order; a reorder buffer folds them in
    // run order, so which run writes a repro and which counts as a dup
    // does not depend on the worker count or timing. A failed or
    // undecodable run parks an empty slot: it is a gap the fold steps
    // over, never a stall.
    std::map<int, std::optional<RunRow>> parked;
    std::size_t next_run = 0;  // position in `runs` of the next fold
    const auto park = [&](int index, std::optional<RunRow> row) {
      parked[index] = std::move(row);
      for (; next_run < runs.size(); ++next_run) {
        const auto it = parked.find(runs[next_run]);
        if (it == parked.end()) break;
        if (it->second) foldRow(it->first, *it->second);
        parked.erase(it);
      }
    };

    exec::fabric::FleetConfig fc;
    fc.listen = options.fleet_listen;
    fc.spawn_workers = options.fleet_workers;
    fc.worker_bin = options.fleet_worker_bin;
    fc.shard_dir = options.fleet_shard_dir;
    fc.body_spec = makeFuzzBodySpec(options);
    fc.fingerprint = campaignFingerprint(options);
    fc.timing.heartbeat_ms = options.fleet_heartbeat_ms;
    fc.timing.lease_deadline_ms = options.fleet_lease_deadline_ms;
    fc.timing.degrade_after_ms = options.fleet_grace_ms;
    if (!options.fleet_chaos.empty()) {
      fc.chaos = exec::fabric::parseChaosSchedule(options.fleet_chaos);
    }
    fc.log = &log;
    fc.local_fn =
        (*exec::fabric::findFleetBodyKind("fuzz-v1"))(fc.body_spec);
    fc.on_result = [&](const exec::fabric::FleetResult& r) {
      int index = 0;
      if (!parseFuzzRunKey(r.key, index)) {
        log << "fleet: discarding result for unknown key '" << r.key
            << "'\n";
        return;
      }
      FuzzRunOutcome outcome;
      if (!decodeFuzzRunOutcome(r.payload, outcome)) {
        // Undecodable result: leave the key un-journaled so a resume
        // simply re-runs it.
        log << "fleet: discarding undecodable result for key '" << r.key
            << "'\n";
        park(index, std::nullopt);
        return;
      }
      RunRow row;
      row.generated = true;
      row.failures = std::move(outcome.failures);
      row.system_text = std::move(outcome.system_text);
      row.fault_plan_text = std::move(outcome.fault_plan_text);
      park(index, std::move(row));
    };
    fc.on_fail = [&](const std::string& key, const std::string& error) {
      if (journal) journal->write(exec::RecordKind::kFail, key, error);
      log << "fleet: run " << key << " failed permanently: " << error
          << "\n";
      int index = 0;
      if (parseFuzzRunKey(key, index)) park(index, std::nullopt);
    };
    fc.on_commit = [&] {
      if (journal) journal->sync();
    };

    const exec::fabric::FleetOutcome fo = exec::fabric::runFleet(keys, fc);
    // An interrupt can leave finished runs parked behind an unfinished
    // one; they are done, so fold them too.
    for (const auto& [index, row] : parked) {
      if (row) foldRow(index, *row);
    }
    if (journal) journal->sync();
    report.fleet = fo.counters;
    report.interrupted = fo.interrupted || exec::interrupted();
    report.elapsed_s = elapsed();
    return report;
  }

  const int batch = std::max(runner.threadCount() * 4, 16);
  for (int base = 0; base < options.runs; base += batch) {
    if (options.time_budget_s > 0 && elapsed() >= options.time_budget_s) {
      report.budget_exhausted = true;
      break;
    }
    if (exec::interrupted()) {
      report.interrupted = true;
      break;
    }
    const int count = std::min(batch, options.runs - base);
    const std::vector<RunRow> rows = runner.map(
        count, options.seed + static_cast<std::uint64_t>(base),
        [&](int s, Rng& rng) {
          RunRow row;
          if (campaign && done_keys.count(fuzzRunKey(base + s)) != 0) {
            row.skipped = true;
            return row;
          }
          if (exec::interrupted()) {
            row.not_run = true;
            return row;
          }
          const WorkloadParams params = drawWorkloadParams(rng);
          const TaskSystem sys = generateWorkload(params, rng);
          row.generated = true;
          if (options.faults) {
            const fault::FaultPlan plan =
                fault::FaultPlan::random(rng, sys, options.fault_count);
            row.failures = checkSystemFaults(sys, plan, fault_options);
            if (!row.failures.empty()) {
              row.system_text = serializeTaskSystemToString(sys);
              row.fault_plan_text = fault::formatPlan(plan, sys);
            }
          } else {
            row.failures = checkSystem(sys, oracle_options);
            if (!row.failures.empty()) {
              row.system_text = serializeTaskSystemToString(sys);
            }
          }
          return row;
        });

    // Fold in run order: reported findings are deterministic for a given
    // (--runs, --seed) at any MPCP_THREADS.
    for (int s = 0; s < count; ++s) {
      const RunRow& row = rows[static_cast<std::size_t>(s)];
      if (row.skipped) {
        ++report.resumed_skips;
        continue;
      }
      if (row.not_run || exec::interrupted()) {
        report.interrupted = true;
        break;  // un-journaled rows in this batch simply re-run on resume
      }
      foldRow(base + s, row);
      if (journal) journal->sync();
    }
    if (report.interrupted) break;
  }

  report.elapsed_s = elapsed();
  return report;
}

}  // namespace mpcp::fuzz
