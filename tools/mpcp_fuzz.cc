// mpcp_fuzz — differential protocol fuzzer with deterministic replay.
//
//   mpcp_fuzz [--runs N] [--seed N] [--time-budget 120s|2m]
//             [--protocols name,name,...] [--mutate NAME]
//             [--corpus-dir DIR] [--no-shrink] [--expect-findings]
//             [--horizon-cap N] [--differential-horizon N]
//             [--max-findings N]
//   mpcp_fuzz --replay FILE [--no-mutation] [--expect-findings]
//   mpcp_fuzz --list-mutations
//
// Fuzz mode draws random task systems (seed s runs with Rng(seed + s), the
// SweepRunner convention, so results are thread-count independent), runs
// every protocol in the registry, and checks the oracle families in
// src/fuzz/oracles.h. Failures are shrunk and written as self-contained
// repro files; `--replay` re-executes one bit-exactly.
//
// Exit codes: 0 = clean (or findings present under --expect-findings),
// 1 = violations found (or none found when expected), 2 = usage error.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cli_util.h"
#include "exec/fabric/chaos.h"
#include "exec/interrupt.h"
#include "obs/counters.h"
#include "fuzz/fuzzer.h"
#include "fuzz/protocols.h"
#include "fuzz/repro.h"

using namespace mpcp;

namespace {

int usage() {
  std::cerr <<
      "usage: mpcp_fuzz [--runs N] [--seed N] [--time-budget Ns|Nm]\n"
      "                 [--protocols name,name,...] [--mutate NAME]\n"
      "                 [--corpus-dir DIR] [--no-shrink]\n"
      "                 [--expect-findings] [--horizon-cap N]\n"
      "                 [--differential-horizon N] [--max-findings N]\n"
      "                 [--faults] [--fault-count N] [--fault-grace X]\n"
      "                 [--fault-watchdog N]\n"
      "                 [--campaign FILE [--resume]]\n"
      "                 fleet mode (needs --campaign): [--workers N]\n"
      "                 [--listen unix:PATH|HOST:PORT] [--shard-dir DIR]\n"
      "                 [--worker-bin PATH] [--heartbeat-ms N]\n"
      "                 [--lease-deadline-ms N] [--fleet-grace-ms N]\n"
      "                 [--chaos SPEC]\n"
      "       mpcp_fuzz --replay FILE [--no-mutation] [--expect-findings]\n"
      "       mpcp_fuzz --list-mutations\n"
      "\n"
      "--campaign journals every run to FILE; a killed campaign resumes\n"
      "with --resume, skipping completed run indices, and findings dedupe\n"
      "by crash signature (oracle + shrunk-system hash) across the whole\n"
      "campaign. Ctrl-C flushes the journal and exits 130.\n"
      "\n"
      "--faults switches to fault-injection mode: each run draws a random\n"
      "FaultPlan (--fault-count specs) and checks the fault:* containment\n"
      "oracles (crash, mutual exclusion, priority handoff, neutral\n"
      "containment, engine-vs-reference under the plan) across all\n"
      "containment policies. Shrinking is disabled; repro files record\n"
      "the plan and replay through the same oracle suite.\n";
  return 2;
}

/// Pull "--flag value" / "--flag" options out of argv.
struct Args {
  std::map<std::string, std::string> options;  // value "" = bare flag

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() || it->second.empty() ? fallback : it->second;
  }
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) return false;
    std::string value;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args.options[a.substr(2)] = value;
  }
  return true;
}

/// "120" or "120s" -> 120 seconds, "2m" -> 120 seconds. -1 on parse error.
double parseBudget(const std::string& text) {
  if (text.empty()) return -1;
  double scale = 1;
  std::string digits = text;
  const char suffix = text.back();
  if (suffix == 's' || suffix == 'm') {
    scale = suffix == 'm' ? 60 : 1;
    digits = text.substr(0, text.size() - 1);
  }
  try {
    return std::stod(digits) * scale;
  } catch (const std::exception&) {
    return -1;
  }
}

std::vector<std::string> splitCommas(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int listMutations() {
  for (const fuzz::Mutation m : fuzz::allMutations()) {
    if (m == fuzz::Mutation::kNone) continue;
    std::cout << toString(m) << "\n";
  }
  return 0;
}

int replayMode(const Args& args) {
  const fuzz::ReproCase repro = fuzz::loadReproFile(args.get("replay", ""));
  const bool with_mutation = !args.has("no-mutation");
  const fuzz::ReplayOutcome outcome = fuzz::replay(repro, with_mutation);
  std::cout << outcome.report;
  if (args.has("expect-findings")) {
    return outcome.reproducesRecordedOracle(repro) ? 0 : 1;
  }
  return outcome.clean() ? 0 : 1;
}

int fuzzMode(const Args& args) {
  fuzz::FuzzOptions options;
  options.runs = static_cast<int>(
      cli::parseInt("--runs", args.get("runs", "200"), 1, 100'000'000));
  options.seed = cli::parseUint("--seed", args.get("seed", "1"));
  options.shrink = !args.has("no-shrink");
  options.corpus_dir = args.get("corpus-dir", "");
  options.horizon_cap = cli::parseInt(
      "--horizon-cap", args.get("horizon-cap", "200000"), 1, kTimeInfinity);
  options.differential_horizon =
      cli::parseInt("--differential-horizon",
                    args.get("differential-horizon", "1200"), 1,
                    kTimeInfinity);
  options.max_findings = static_cast<int>(
      cli::parseInt("--max-findings", args.get("max-findings", "8"), 1,
                    1'000'000));
  if (args.has("time-budget")) {
    options.time_budget_s = parseBudget(args.get("time-budget", ""));
    if (options.time_budget_s < 0) {
      std::cerr << "bad --time-budget '" << args.get("time-budget", "")
                << "' (want e.g. 120s or 2m)\n";
      return 2;
    }
  }
  if (args.has("protocols")) {
    options.protocols = splitCommas(args.get("protocols", ""));
    for (const std::string& p : options.protocols) {
      if (!fuzz::protocolKnown(p)) {
        std::cerr << "unknown protocol '" << p << "'\n";
        return 2;
      }
    }
  }
  if (args.has("mutate")) {
    const auto m = fuzz::mutationFromName(args.get("mutate", ""));
    if (!m.has_value()) {
      std::cerr << "unknown mutation '" << args.get("mutate", "")
                << "' (see --list-mutations)\n";
      return 2;
    }
    options.mutation = *m;
  }
  options.faults = args.has("faults");
  options.fault_count = static_cast<int>(
      cli::parseInt("--fault-count", args.get("fault-count", "2"), 1, 64));
  options.fault_grace =
      cli::parseDouble("--fault-grace", args.get("fault-grace", "1"), 1.0, 100.0);
  options.fault_watchdog = cli::parseInt(
      "--fault-watchdog", args.get("fault-watchdog", "500"), 1, kTimeInfinity);
  if (options.faults && options.mutation != fuzz::Mutation::kNone) {
    std::cerr << "--faults and --mutate are mutually exclusive (fault mode "
                 "runs the protocols unmutated)\n";
    return 2;
  }
  if (args.has("campaign")) {
    options.campaign_path = args.get("campaign", "");
    if (options.campaign_path.empty()) {
      throw cli::UsageError("--campaign needs a file path");
    }
  }
  options.resume = args.has("resume");
  if (options.resume && options.campaign_path.empty()) {
    throw cli::UsageError("--resume needs --campaign FILE");
  }

  // Fleet mode (ISSUE 9): distribute run indices across mpcp_worker
  // processes. Campaign-only — the journal is what makes a worker or
  // coordinator death recoverable.
  const bool fleet = args.has("workers") || args.has("listen");
  if (fleet) {
    if (options.campaign_path.empty()) {
      throw cli::UsageError("fleet mode needs --campaign FILE");
    }
    if (args.has("time-budget")) {
      throw cli::UsageError(
          "--time-budget is unsupported in fleet mode; bound the campaign "
          "with --runs and resume it instead");
    }
    options.fleet_workers = static_cast<int>(
        cli::parseInt("--workers", args.get("workers", "0"), 0, 256));
    options.fleet_listen = args.get("listen", "");
    options.fleet_worker_bin = args.get("worker-bin", "");
    options.fleet_shard_dir =
        args.get("shard-dir", options.campaign_path + ".shards");
    options.fleet_heartbeat_ms = static_cast<int>(cli::parseInt(
        "--heartbeat-ms", args.get("heartbeat-ms", "500"), 10, 60'000));
    // A worker cannot heartbeat mid-run (single-threaded session), so
    // the deadline must exceed the slowest single fuzz run — seconds of
    // simulation plus the differential — not the sweep-style default.
    options.fleet_lease_deadline_ms = static_cast<int>(
        cli::parseInt("--lease-deadline-ms",
                      args.get("lease-deadline-ms", "60000"), 100, 600'000));
    options.fleet_grace_ms = static_cast<int>(cli::parseInt(
        "--fleet-grace-ms", args.get("fleet-grace-ms", "3000"), 100,
        600'000));
    if (args.has("chaos")) {
      // Parse eagerly so a malformed spec exits 2 here instead of deep in
      // the campaign; the validated text rides in options.
      try {
        options.fleet_chaos = mpcp::exec::fabric::formatChaosSchedule(
            mpcp::exec::fabric::parseChaosSchedule(args.get("chaos", "")));
      } catch (const mpcp::ConfigError& e) {
        throw cli::UsageError(std::string("--chaos: ") + e.what());
      }
    }
  } else if (args.has("chaos")) {
    throw cli::UsageError(
        "--chaos is a fleet-mode flag; add --workers or --listen");
  }

  // Fail fast on unwritable outputs before any run: the repro corpus
  // directory (probed first — the campaign journal may live inside it),
  // the campaign journal, the fleet shard directory (worker logs and the
  // default unix socket land there), and the bench JSON sink if one is
  // set.
  if (!options.corpus_dir.empty()) {
    cli::probeWritableDir("--corpus-dir", options.corpus_dir);
  }
  if (!options.campaign_path.empty()) {
    cli::probeWritableFile("--campaign", options.campaign_path);
  }
  if (fleet) {
    cli::probeWritableDir("--shard-dir", options.fleet_shard_dir);
  }
  if (std::getenv("MPCP_BENCH_DIR") != nullptr) {
    cli::probeWritableFile("MPCP_BENCH_DIR", bench::BenchJson("fuzz").path());
  }

  const fuzz::FuzzReport report = fuzz::runFuzz(options, std::cout);
  std::cout << "fuzz: " << report.runs_executed << "/" << options.runs
            << " runs, " << report.systems_with_findings
            << " systems with findings, " << report.findings.size()
            << " repros, " << report.elapsed_s << "s"
            << (report.budget_exhausted ? " (time budget exhausted)" : "")
            << (report.interrupted ? " (interrupted)" : "") << "\n";
  if (!report.oracle_runs.empty()) {
    std::cout << "oracles:";
    for (const auto& [oracle, runs] : report.oracle_runs) {
      std::cout << " " << oracle << "=" << runs;
    }
    std::cout << "\n";
  }
  if (!options.campaign_path.empty()) {
    std::cout << "campaign: " << report.resumed_skips << " resumed skips, "
              << report.previous_findings << " previous findings, "
              << report.duplicate_findings << " duplicates";
    if (report.journal_corrupt_lines > 0) {
      std::cout << ", " << report.journal_corrupt_lines
                << " corrupt journal lines skipped";
    }
    std::cout << "\n";
  }
  if (fleet) {
    std::cerr << obs::renderFleetCounters(report.fleet) << "\n";
  }

  bench::BenchJson json("fuzz");
  json.set("runs_requested", options.runs);
  json.set("runs_executed", report.runs_executed);
  json.set("systems_with_findings", report.systems_with_findings);
  json.set("repros_written", static_cast<int>(report.findings.size()));
  json.set("mutation", toString(options.mutation));
  json.set("faults", options.faults);
  json.set("seed", static_cast<std::int64_t>(options.seed));
  json.set("elapsed_s", report.elapsed_s);
  json.set("budget_exhausted", report.budget_exhausted);
  json.set("campaign", !options.campaign_path.empty());
  json.set("resumed_skips", report.resumed_skips);
  json.set("duplicate_findings", report.duplicate_findings);
  json.set("interrupted", report.interrupted);
  json.write();

  if (report.interrupted) return exec::interruptExitCode();
  if (args.has("expect-findings")) {
    if (report.systems_with_findings == 0) {
      std::cerr << "expected findings, found none in "
                << report.runs_executed << " runs\n";
      return 1;
    }
    return 0;
  }
  return report.systems_with_findings == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Ctrl-C / SIGTERM raise a flag the fuzz loop polls between runs; the
  // campaign journal stays valid for --resume and the exit code is
  // 128+signo (130 for SIGINT).
  mpcp::exec::installInterruptHandlers();
  Args args;
  if (!parseArgs(argc, argv, args)) return usage();
  if (args.has("help")) return usage();
  try {
    if (args.has("list-mutations")) return listMutations();
    if (args.has("replay")) return replayMode(args);
    return fuzzMode(args);
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
