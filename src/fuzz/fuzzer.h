// The generator-driven fuzz loop.
//
// Each run index i derives Rng(seed + i) (the SweepRunner convention, so
// results are independent of thread count), draws randomized
// WorkloadParams, generates a task system via src/taskgen/, and feeds it
// to the oracle families in fuzz/oracles.h. Findings are shrunk
// (fuzz/shrink.h) and serialized as self-contained repro files
// (fuzz/repro.h).
//
// Runs fan out across exp::SweepRunner (MPCP_THREADS) in batches; the
// wall-clock budget is checked between batches only, and per-run results
// are folded in run order, so the set of *reported* findings for a given
// (--runs, --seed) is deterministic at any thread count when no time
// budget cuts the loop short.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz/mutations.h"
#include "fuzz/oracles.h"
#include "obs/counters.h"
#include "taskgen/generator.h"

namespace mpcp::fuzz {

struct FuzzOptions {
  int runs = 200;
  std::uint64_t seed = 1;
  /// Wall-clock budget in seconds; 0 = unlimited (run all `runs`).
  double time_budget_s = 0;
  /// Protocols to exercise; empty = the full registry.
  std::vector<std::string> protocols;
  Mutation mutation = Mutation::kNone;
  /// Directory for emitted repro files; empty = current directory.
  std::string corpus_dir;
  bool shrink = true;
  int max_shrink_evaluations = 300;
  Time horizon_cap = 200'000;
  Time differential_horizon = 1'200;
  /// Stop after this many findings (each one costs a shrink).
  int max_findings = 8;
  /// Fault-injection mode: draw a random FaultPlan per run and check the
  /// fault:* containment oracles instead of the differential families.
  /// Shrinking is disabled (the plan's task/resource references pin the
  /// system), and the plan is recorded in the repro file.
  bool faults = false;
  int fault_count = 2;          ///< specs per random plan
  double fault_grace = 1.0;     ///< budget-enforce grace multiplier
  Duration fault_watchdog = 500;  ///< holder-watchdog timeout (ticks)
  /// Campaign mode (ISSUE 5): journal every run to this file so a killed
  /// campaign resumes with --resume, skipping completed run indices, and
  /// findings dedupe by crash signature (oracle + shrunk-system hash)
  /// across the whole campaign — a rediscovered bug is counted, not
  /// re-shrunk or re-written. Empty = classic one-shot mode, whose output
  /// is byte-identical to pre-campaign builds.
  std::string campaign_path;
  bool resume = false;
  /// Fleet mode (ISSUE 9): when fleet_workers > 0 or fleet_listen is
  /// set, run indices are sharded across mpcp_worker processes via the
  /// campaign fabric. Workers do the generate+oracle half; journaling,
  /// shrinking, dedupe, and repro writing stay on the coordinator, so
  /// resume semantics match the serial campaign. Requires campaign_path;
  /// time_budget_s is unsupported (the CLI rejects the combination).
  int fleet_workers = 0;
  std::string fleet_listen;
  std::string fleet_worker_bin;
  std::string fleet_shard_dir;  ///< worker logs + default unix socket
  int fleet_heartbeat_ms = 500;
  int fleet_lease_deadline_ms = 60000;  ///< must exceed the slowest run
  int fleet_grace_ms = 3000;  ///< degrade to in-process after this long
  /// Chaos schedule text (exec/fabric/chaos.h grammar); empty = off.
  std::string fleet_chaos;
};

struct FuzzFinding {
  int run_index = 0;
  std::uint64_t derived_seed = 0;  ///< seed + run_index
  OracleFailure failure;           ///< first failure of the run
  int tasks_before = 0;            ///< task count pre-shrink
  int tasks_after = 0;             ///< task count post-shrink
  int shrink_evaluations = 0;
  std::string repro_text;          ///< writeRepro() of the shrunk case
  std::string repro_path;          ///< file written ("" if writing failed)
};

struct FuzzReport {
  int runs_executed = 0;
  int systems_with_findings = 0;
  /// Per "protocol:oracle": how many executed runs tripped it.
  std::map<std::string, int> oracle_runs;
  std::vector<FuzzFinding> findings;
  double elapsed_s = 0;
  bool budget_exhausted = false;  ///< time budget ended the loop early
  // Campaign-mode bookkeeping (zero in one-shot mode).
  int resumed_skips = 0;       ///< run indices satisfied from the journal
  int previous_findings = 0;   ///< distinct findings recorded by prior runs
  int duplicate_findings = 0;  ///< findings deduped by crash signature
  std::uint64_t journal_corrupt_lines = 0;  ///< CRC-bad lines skipped
  bool interrupted = false;    ///< SIGINT/SIGTERM ended the loop early
  obs::FleetCounters fleet;    ///< fleet-mode bookkeeping (zero otherwise)
};

/// Runs the loop; progress and findings go to `log`.
[[nodiscard]] FuzzReport runFuzz(const FuzzOptions& options,
                                 std::ostream& log);

/// Campaign dedupe key: "<protocol>:<oracle>@<fnv1a64 of system_text>".
/// Two findings with the same signature are the same bug for campaign
/// accounting — same oracle tripped by the same (shrunk) system.
[[nodiscard]] std::string findingSignature(const std::string& protocol,
                                           const std::string& oracle,
                                           const std::string& system_text);

/// The per-run parameter draw, exposed for tests: deterministic in `rng`.
[[nodiscard]] WorkloadParams drawWorkloadParams(Rng& rng);

}  // namespace mpcp::fuzz
