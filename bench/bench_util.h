// Shared helpers for the experiment binaries (bench/).
//
// Each bench reproduces one artifact of the paper (a figure, a table, or
// an analysis claim) and prints the rows the paper reports. Absolute
// numbers differ from the 1990 hardware, but the *shape* — who wins,
// by what factor, where crossovers fall — is the reproduction target
// (see EXPERIMENTS.md).
//
// Ensemble sweeps fan their independent seeds across cores through
// exp::SweepRunner (thread count: MPCP_THREADS, default all cores);
// per-seed RNG streams and seed-ordered reduction keep every aggregate
// bit-identical to a serial run. Wall-clock timing and the BENCH_*.json
// writer below give every bench a machine-readable perf trajectory.
#pragma once

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/analyzer.h"
#include "core/simulate.h"
#include "exp/sweep_runner.h"
#include "taskgen/generator.h"

namespace mpcp::bench {

/// Wall-clock stopwatch (steady clock), started at construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed seconds since construction / last restart().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ----- provenance -----
// Every BENCH_*.json records where its numbers came from (commit, CPU
// model, date), so two files can be compared like for like: a change of
// CPU model explains a change of numbers.

/// Commit the numbers were measured at: $GITHUB_SHA (Actions) or
/// $MPCP_GIT_SHA (local override), else "unknown".
inline std::string gitSha() {
  for (const char* var : {"GITHUB_SHA", "MPCP_GIT_SHA"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') return v;
  }
  return "unknown";
}

/// First "model name" entry of /proc/cpuinfo, or "unknown".
inline std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto first = line.find_first_not_of(" \t", colon + 1);
    if (first == std::string::npos) continue;
    return line.substr(first);
  }
  return "unknown";
}

/// UTC timestamp of the run, ISO 8601.
inline std::string isoDate() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Accumulates key/number pairs and writes them as BENCH_<name>.json —
/// one flat JSON object per bench run, so successive PRs (or successive
/// local runs) can be diffed into a perf trajectory. Output lands in
/// $MPCP_BENCH_DIR if set, else the current directory.
///
/// Schema v2: every file carries provenance (git_sha, cpu_model, date)
/// in addition to the bench's own flat numeric fields.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    set("bench", name_);
    set("schema_version", std::int64_t{2});
    set("git_sha", gitSha());
    set("cpu_model", cpuModel());
    set("date", isoDate());
  }

  void set(const std::string& key, double v) {
    std::ostringstream os;
    os << std::setprecision(10) << v;
    fields_.emplace_back(key, os.str());
  }
  void set(const std::string& key, std::int64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void set(const std::string& key, int v) { set(key, std::int64_t{v}); }
  void set(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
  }
  void set(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    fields_.emplace_back(key, quoted);
  }

  [[nodiscard]] std::string path() const {
    const char* dir = std::getenv("MPCP_BENCH_DIR");
    const std::string prefix = dir != nullptr ? std::string(dir) + "/" : "";
    return prefix + "BENCH_" + name_ + ".json";
  }

  /// Writes the file; returns false (and prints a warning) on I/O error.
  bool write() const {
    const std::string file = path();
    std::ofstream out(file);
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << "  \"" << fields_[i].first << "\": " << fields_[i].second
          << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    out.flush();
    if (!out) {
      std::cerr << "warning: could not write " << file << "\n";
      return false;
    }
    std::cout << "wrote " << file << "\n";
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Prints a header followed by a separator sized to it.
inline void printHeader(const std::string& title) {
  std::cout << "\n### " << title << "\n";
}

/// Fixed-width cell helpers.
inline std::string cell(const std::string& s, int w = 12) {
  std::ostringstream os;
  os << std::left << std::setw(w) << s;
  return os.str();
}
inline std::string cell(double v, int w = 12, int prec = 3) {
  std::ostringstream os;
  os << std::left << std::setw(w) << std::fixed << std::setprecision(prec)
     << v;
  return os.str();
}
inline std::string cell(std::int64_t v, int w = 12) {
  std::ostringstream os;
  os << std::left << std::setw(w) << v;
  return os.str();
}

/// Fraction of `seeds` random workloads accepted by the RTA under `kind`,
/// plus the fraction whose simulation misses a deadline *despite*
/// acceptance (soundness violations; must be 0).
struct AcceptanceResult {
  double accepted_rta = 0;
  double accepted_ll = 0;
  double sim_miss_given_accept = 0;  // soundness violations
  int runs = 0;
};

/// Seeds fan out across exp::SweepRunner threads; the fold below walks
/// rows in seed order, so the result is identical at any thread count.
/// Pass an explicit `runner` to pin the thread count (tests); nullptr
/// uses the process-wide runner (MPCP_THREADS).
inline AcceptanceResult acceptanceSweep(ProtocolKind kind,
                                        const WorkloadParams& params,
                                        int seeds,
                                        std::uint64_t seed_base = 1000,
                                        bool simulate_accepted = false,
                                        exp::SweepRunner* runner = nullptr) {
  struct SeedRow {
    bool rta = false;
    bool ll = false;
    bool miss = false;
  };
  exp::SweepRunner& r = runner != nullptr ? *runner : exp::SweepRunner::global();
  const std::vector<SeedRow> rows =
      r.map(seeds, seed_base, [&](int /*s*/, Rng& rng) {
        SeedRow row;
        const TaskSystem sys = generateWorkload(params, rng);
        const ProtocolAnalysis analysis = analyzeUnder(kind, sys);
        row.ll = analysis.report.ll_all;
        row.rta = analysis.report.rta_all;
        if (row.rta && simulate_accepted) {
          const SimResult sim = simulate(
              kind, sys,
              {.horizon_cap = 300'000, .stop_on_deadline_miss = true,
               .record_trace = false});
          row.miss = sim.any_deadline_miss;
        }
        return row;
      });

  AcceptanceResult out;
  int accepted = 0, accepted_ll = 0, missed = 0;
  for (const SeedRow& row : rows) {
    accepted_ll += row.ll ? 1 : 0;
    if (row.rta) {
      ++accepted;
      missed += row.miss ? 1 : 0;
    }
  }
  out.runs = seeds;
  out.accepted_rta = static_cast<double>(accepted) / seeds;
  out.accepted_ll = static_cast<double>(accepted_ll) / seeds;
  out.sim_miss_given_accept =
      accepted == 0 ? 0.0 : static_cast<double>(missed) / accepted;
  return out;
}

}  // namespace mpcp::bench
