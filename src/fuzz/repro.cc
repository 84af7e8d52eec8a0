#include "fuzz/repro.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/strf.h"
#include "fuzz/protocols.h"
#include "model/serialize.h"

namespace mpcp::fuzz {

namespace {

std::vector<std::string> splitProtocols(const std::string& field) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : field) {
    if (c == '+') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// FNV-1a over the job finish times — a compact schedule fingerprint for
/// byte-identical replay comparison.
std::uint64_t finishHash(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const JobRecord& jr : r.jobs) {
    mix(static_cast<std::uint64_t>(jr.id.task.value()));
    mix(static_cast<std::uint64_t>(jr.id.instance));
    mix(static_cast<std::uint64_t>(jr.finish));
  }
  return h;
}

ConfigError badHeader(int line_no, const std::string& key,
                      const std::string& text) {
  return ConfigError(strf("repro parse error at line ", line_no, ": bad ",
                          key, " '", text, "'"));
}

/// `text` as one whole number token of type T (decimal for integers);
/// a sign an unsigned type lacks, trailing bytes or overflow throw.
template <typename T>
T parseHeaderNumber(const std::string& text, int line_no,
                    const std::string& key) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) throw badHeader(line_no, key, text);
  return value;
}

}  // namespace

std::string writeRepro(const ReproCase& repro) {
  std::ostringstream os;
  os << "# mpcp_fuzz repro v1\n";
  os << "protocol " << repro.protocol << "\n";
  os << "oracle " << repro.oracle << "\n";
  if (repro.mutation != Mutation::kNone) {
    os << "mutation " << toString(repro.mutation) << "\n";
  }
  os << "seed " << repro.seed << "\n";
  os << "horizon-cap " << repro.horizon_cap << "\n";
  os << "differential-horizon " << repro.differential_horizon << "\n";
  if (!repro.fault_plan.empty()) {
    os << "fault-plan " << repro.fault_plan << "\n";
    os << "fault-grace " << repro.fault_grace << "\n";
    os << "fault-watchdog " << repro.fault_watchdog << "\n";
  }
  os << "system\n";
  serializeTaskSystem(os, repro.system);
  return os.str();
}

ReproCase parseRepro(const std::string& text) {
  ReproCase repro;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  bool saw_system = false;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "system") {
      saw_system = true;
      break;
    }
    std::string value;
    if (!(ls >> value)) {
      throw ConfigError(
          strf("repro parse error at line ", line_no, ": '", key,
               "' needs a value"));
    }
    if (key == "protocol") {
      repro.protocol = value;
      for (const std::string& p : splitProtocols(value)) {
        if (!protocolKnown(p)) {
          throw ConfigError(strf("repro parse error at line ", line_no,
                                 ": unknown protocol '", p, "'"));
        }
      }
    } else if (key == "oracle") {
      repro.oracle = value;
    } else if (key == "mutation") {
      const auto m = mutationFromName(value);
      if (!m.has_value()) {
        throw ConfigError(strf("repro parse error at line ", line_no,
                               ": unknown mutation '", value, "'"));
      }
      repro.mutation = *m;
    } else if (key == "seed") {
      repro.seed = parseHeaderNumber<std::uint64_t>(value, line_no, key);
    } else if (key == "horizon-cap") {
      repro.horizon_cap = parseHeaderNumber<Time>(value, line_no, key);
    } else if (key == "differential-horizon") {
      repro.differential_horizon =
          parseHeaderNumber<Time>(value, line_no, key);
    } else if (key == "fault-plan") {
      repro.fault_plan = value;  // validated against the system below
    } else if (key == "fault-grace") {
      repro.fault_grace = parseHeaderNumber<double>(value, line_no, key);
      if (!std::isfinite(repro.fault_grace) || repro.fault_grace <= 0) {
        throw badHeader(line_no, key, value);
      }
    } else if (key == "fault-watchdog") {
      repro.fault_watchdog = parseHeaderNumber<Duration>(value, line_no, key);
    } else {
      throw ConfigError(strf("repro parse error at line ", line_no,
                             ": unknown header key '", key, "'"));
    }
  }
  if (!saw_system) {
    throw ConfigError("repro parse error: missing 'system' separator");
  }
  if (repro.protocol.empty()) {
    throw ConfigError("repro parse error: missing 'protocol' header");
  }
  std::ostringstream rest;
  rest << in.rdbuf();
  repro.system = parseTaskSystemFromString(rest.str());
  if (!repro.fault_plan.empty()) {
    // Fail loudly at load time, not mid-replay: the plan must resolve
    // against the recorded system.
    (void)fault::parsePlan(repro.fault_plan, repro.system);
  }
  return repro;
}

ReproCase loadReproFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open repro file '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return parseRepro(os.str());
}

bool ReplayOutcome::reproducesRecordedOracle(const ReproCase& r) const {
  for (const OracleFailure& f : failures) {
    if (f.oracle == r.oracle) return true;
  }
  return false;
}

namespace {

/// Fault-mode replay: re-run the fault:* oracle suite and fingerprint the
/// MPCP schedule under every containment policy.
ReplayOutcome replayFaults(const ReproCase& repro, bool with_plan) {
  const fault::FaultPlan full = fault::parsePlan(repro.fault_plan, repro.system);
  const fault::FaultPlan plan = with_plan ? full : fault::FaultPlan{};
  FaultOracleOptions options;
  options.horizon_cap = repro.horizon_cap;
  options.differential_horizon = repro.differential_horizon;
  options.grace = repro.fault_grace;
  options.watchdog_timeout = repro.fault_watchdog;

  ReplayOutcome outcome;
  outcome.failures = checkSystemFaults(repro.system, plan, options);

  std::ostringstream os;
  os << "replay fault-plan=" << (with_plan ? repro.fault_plan : "(none)")
     << " grace=" << repro.fault_grace
     << " watchdog=" << repro.fault_watchdog
     << " recorded-oracle=" << repro.oracle << "\n";
  os << "system tasks=" << repro.system.tasks().size()
     << " processors=" << repro.system.processorCount()
     << " resources=" << repro.system.resources().size() << "\n";
  // Per-policy schedule fingerprints — the bit-exactness witness.
  for (const FaultPolicy& policy : faultPolicies(options)) {
    SimConfig config{.horizon_cap = repro.horizon_cap};
    config.fault_plan = &plan;
    config.containment = policy.config;
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol("mpcp", repro.system, config);
    } catch (const InvariantError& e) {
      os << "run mpcp/" << policy.name << ": crashed (" << e.what() << ")\n";
      continue;
    }
    if (!sim.has_value()) {
      os << "run mpcp/" << policy.name << ": not applicable\n";
      continue;
    }
    std::ostringstream hex;
    hex << std::hex << finishHash(*sim);
    os << "run mpcp/" << policy.name << ": jobs=" << sim->jobs.size()
       << " finish-hash=0x" << hex.str()
       << " deadline-miss=" << (sim->any_deadline_miss ? 1 : 0) << "\n";
  }
  os << "failures " << outcome.failures.size() << "\n";
  for (const OracleFailure& f : outcome.failures) {
    os << "  [" << f.protocol << "] " << f.oracle << ": " << f.details
       << "\n";
  }
  os << "verdict "
     << (outcome.failures.empty()
             ? "CLEAN"
             : outcome.reproducesRecordedOracle(repro)
                   ? "VIOLATION (recorded oracle reproduced)"
                   : "VIOLATION (different oracle)")
     << "\n";
  outcome.report = os.str();
  return outcome;
}

}  // namespace

ReplayOutcome replay(const ReproCase& repro, bool with_mutation) {
  if (!repro.fault_plan.empty()) return replayFaults(repro, with_mutation);
  OracleOptions options;
  options.protocols = splitProtocols(repro.protocol);
  options.mutation = with_mutation ? repro.mutation : Mutation::kNone;
  options.horizon_cap = repro.horizon_cap;
  options.differential_horizon = repro.differential_horizon;

  ReplayOutcome outcome;
  outcome.failures = checkSystem(repro.system, options);

  std::ostringstream os;
  os << "replay protocol=" << repro.protocol
     << " mutation=" << toString(options.mutation)
     << " recorded-oracle=" << repro.oracle << "\n";
  os << "system tasks=" << repro.system.tasks().size()
     << " processors=" << repro.system.processorCount()
     << " resources=" << repro.system.resources().size() << "\n";
  // Per-protocol schedule fingerprints — the bit-exactness witness.
  for (const std::string& name : options.protocols) {
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol(name, repro.system,
                           SimConfig{.horizon_cap = repro.horizon_cap},
                           options.mutation);
    } catch (const InvariantError& e) {
      os << "run " << name << ": crashed (" << e.what() << ")\n";
      continue;
    }
    if (!sim.has_value()) {
      os << "run " << name << ": not applicable\n";
      continue;
    }
    std::ostringstream hex;
    hex << std::hex << finishHash(*sim);
    os << "run " << name << ": jobs=" << sim->jobs.size()
       << " finish-hash=0x" << hex.str()
       << " deadline-miss=" << (sim->any_deadline_miss ? 1 : 0) << "\n";
  }
  os << "failures " << outcome.failures.size() << "\n";
  for (const OracleFailure& f : outcome.failures) {
    os << "  [" << f.protocol << "] " << f.oracle << ": " << f.details
       << "\n";
  }
  os << "verdict "
     << (outcome.failures.empty()
             ? "CLEAN"
             : outcome.reproducesRecordedOracle(repro)
                   ? "VIOLATION (recorded oracle reproduced)"
                   : "VIOLATION (different oracle)")
     << "\n";
  outcome.report = os.str();
  return outcome;
}

}  // namespace mpcp::fuzz
