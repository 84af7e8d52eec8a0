#include "fuzz/fleet.h"

#include <charconv>

#include "common/check.h"
#include "common/strf.h"
#include "exec/fabric/work.h"
#include "exec/journal.h"
#include "fault/plan.h"
#include "model/serialize.h"

namespace mpcp::fuzz {

namespace {

/// Comma-joined with a trailing comma, the campaignFingerprint idiom —
/// "" stays "" so the spec token round-trips an empty protocol list.
std::string joinProtocols(const std::vector<std::string>& protocols) {
  std::string out;
  for (const std::string& p : protocols) {
    out += p;
    out += ',';
  }
  return out;
}

std::vector<std::string> splitProtocols(const std::string& joined) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < joined.size()) {
    std::size_t comma = joined.find(',', pos);
    if (comma == std::string::npos) comma = joined.size();
    if (comma > pos) out.push_back(joined.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// Splits `text` into lines (no trailing newline handling needed — the
/// encoder never emits one).
std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(pos, nl - pos));
    if (nl == text.size()) break;
    pos = nl + 1;
  }
  return out;
}

}  // namespace

std::string makeFuzzBodySpec(const FuzzOptions& o) {
  return strf("fuzz-v1 seed=", o.seed,
              " protocols=", joinProtocols(o.protocols),
              " mutation=", toString(o.mutation),
              " horizon-cap=", o.horizon_cap,
              " differential-horizon=", o.differential_horizon,
              " faults=", o.faults ? 1 : 0, " fault-count=", o.fault_count,
              " fault-grace=", exec::fabric::formatSpecDouble(o.fault_grace),
              " fault-watchdog=", o.fault_watchdog);
}

std::string encodeFuzzRunOutcome(const FuzzRunOutcome& outcome) {
  if (outcome.failures.empty()) return "clean";
  std::string out = strf("hit ", outcome.failures.size());
  for (const OracleFailure& f : outcome.failures) {
    out.append("\n").append(f.protocol);
    out.append("\n").append(f.oracle);
    out.append("\n").append(exec::escapeLine(f.details));
  }
  out.append("\n").append(exec::escapeLine(outcome.fault_plan_text));
  out.append("\n").append(exec::escapeLine(outcome.system_text));
  return out;
}

bool decodeFuzzRunOutcome(const std::string& payload, FuzzRunOutcome& out) {
  out = FuzzRunOutcome{};
  if (payload == "clean") return true;
  const std::vector<std::string> lines = splitLines(payload);
  if (lines.empty() || lines[0].rfind("hit ", 0) != 0) return false;
  const std::string count_text = lines[0].substr(4);
  std::size_t count = 0;
  const auto [ptr, ec] = std::from_chars(
      count_text.data(), count_text.data() + count_text.size(), count);
  if (ec != std::errc() || ptr != count_text.data() + count_text.size() ||
      count == 0 || count > 1024) {
    return false;
  }
  if (lines.size() != 1 + 3 * count + 2) return false;
  for (std::size_t i = 0; i < count; ++i) {
    OracleFailure f;
    f.protocol = lines[1 + 3 * i];
    f.oracle = lines[2 + 3 * i];
    f.details = exec::unescapeLine(lines[3 + 3 * i]);
    out.failures.push_back(std::move(f));
  }
  out.fault_plan_text = exec::unescapeLine(lines[1 + 3 * count]);
  out.system_text = exec::unescapeLine(lines[2 + 3 * count]);
  return true;
}

void registerFuzzFleetBody() {
  exec::fabric::registerFleetBodyKind(
      "fuzz-v1",
      [](const std::string& spec) -> exec::fabric::FleetBodyFn {
        const auto seed = static_cast<std::uint64_t>(
            exec::fabric::specInt(spec, "seed"));
        const std::string mutation_name =
            exec::fabric::specValue(spec, "mutation");
        const std::optional<Mutation> mutation =
            mutationFromName(mutation_name);
        if (!mutation.has_value()) {
          throw ConfigError("body spec has unknown mutation '" +
                            mutation_name + "'");
        }
        OracleOptions oracle_options;
        oracle_options.protocols =
            splitProtocols(exec::fabric::specValue(spec, "protocols"));
        oracle_options.mutation = *mutation;
        oracle_options.horizon_cap =
            exec::fabric::specInt(spec, "horizon-cap");
        oracle_options.differential_horizon =
            exec::fabric::specInt(spec, "differential-horizon");

        const bool faults = exec::fabric::specInt(spec, "faults") != 0;
        const int fault_count =
            static_cast<int>(exec::fabric::specInt(spec, "fault-count"));
        FaultOracleOptions fault_options;
        fault_options.horizon_cap = oracle_options.horizon_cap;
        fault_options.differential_horizon =
            oracle_options.differential_horizon;
        fault_options.grace = exec::fabric::specDouble(spec, "fault-grace");
        fault_options.watchdog_timeout =
            exec::fabric::specInt(spec, "fault-watchdog");

        return [=](const std::string& key) {
          exec::fabric::FleetResult out;
          out.key = key;
          int index = 0;
          bool key_ok = key.size() > 1 && key[0] == 'r';
          if (key_ok) {
            const char* begin = key.data() + 1;
            const char* end = key.data() + key.size();
            const auto [ptr, ec] = std::from_chars(begin, end, index);
            key_ok = ec == std::errc() && ptr == end && index >= 0;
          }
          if (!key_ok) {
            out.payload = "malformed fuzz key '" + key + "'";
            return out;
          }
          // Rng(seed + i): the SweepRunner convention the serial fuzz
          // loop uses, so a fleet run of index i draws the identical
          // system and the identical oracle verdicts.
          Rng rng(seed + static_cast<std::uint64_t>(index));
          const WorkloadParams params = drawWorkloadParams(rng);
          const TaskSystem sys = generateWorkload(params, rng);
          FuzzRunOutcome outcome;
          if (faults) {
            const fault::FaultPlan plan =
                fault::FaultPlan::random(rng, sys, fault_count);
            outcome.failures = checkSystemFaults(sys, plan, fault_options);
            if (!outcome.failures.empty()) {
              outcome.system_text = serializeTaskSystemToString(sys);
              outcome.fault_plan_text = fault::formatPlan(plan, sys);
            }
          } else {
            outcome.failures = checkSystem(sys, oracle_options);
            if (!outcome.failures.empty()) {
              outcome.system_text = serializeTaskSystemToString(sys);
            }
          }
          out.ok = true;
          out.payload = encodeFuzzRunOutcome(outcome);
          return out;
        };
      });
}

}  // namespace mpcp::fuzz
