#include "exec/fabric/work.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "common/strf.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "core/simulate.h"

namespace mpcp::exec::fabric {

namespace {

std::mutex g_registry_mu;
std::map<std::string, FleetBodyFactory>& registry() {
  static std::map<std::string, FleetBodyFactory> r;
  return r;
}

}  // namespace

void registerFleetBodyKind(const std::string& kind, FleetBodyFactory factory) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  registry()[kind] = std::move(factory);
}

const FleetBodyFactory* findFleetBodyKind(const std::string& kind) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  const auto it = registry().find(kind);
  return it == registry().end() ? nullptr : &it->second;
}

std::vector<std::string> fleetBodyKinds() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<std::string> kinds;
  for (const auto& [name, factory] : registry()) kinds.push_back(name);
  return kinds;
}

std::string fleetBodyKind(const std::string& spec) {
  const std::size_t sp = spec.find(' ');
  return sp == std::string::npos ? spec : spec.substr(0, sp);
}

std::string specValue(const std::string& spec, const std::string& key) {
  // Tokens are space-separated "k=v"; values never contain spaces.
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(' ', pos);
    if (end == std::string::npos) end = spec.size();
    if (spec.compare(pos, needle.size(), needle) == 0) {
      return spec.substr(pos + needle.size(), end - pos - needle.size());
    }
    pos = end + 1;
  }
  throw ConfigError("body spec is missing '" + key + "': " + spec);
}

std::string formatSpecDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::int64_t specInt(const std::string& spec, const std::string& key) {
  const std::string text = specValue(spec, key);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw ConfigError("body spec '" + key + "' is not an integer: '" + text +
                      "'");
  }
  return value;
}

double specDouble(const std::string& spec, const std::string& key) {
  const std::string text = specValue(spec, key);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    throw ConfigError("body spec '" + key + "' is not a number: '" + text +
                      "'");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    throw ConfigError("body spec '" + key + "' is out of range: '" + text +
                      "'");
  }
  return value;
}

std::string makeSweepBodySpec(const std::string& protocol,
                              std::uint64_t seed_base, Time horizon,
                              const WorkloadParams& params, int sleep_ms) {
  return strf("sweep-v1 protocol=", protocol, " seed-base=", seed_base,
              " horizon=", horizon, " processors=", params.processors,
              " tasks-per-proc=", params.tasks_per_processor,
              " util=", formatSpecDouble(params.utilization_per_processor),
              " resources=", params.global_resources,
              " cs-max=", params.cs_max, " suspend-prob=",
              formatSpecDouble(params.suspension_prob),
              " sleep-ms=", sleep_ms);
}

void registerSweepFleetBody() {
  registerFleetBodyKind(
      "sweep-v1", [](const std::string& spec) -> FleetBodyFn {
        const ProtocolKind kind =
            protocolKindFromName(specValue(spec, "protocol"));
        const auto seed_base =
            static_cast<std::uint64_t>(specInt(spec, "seed-base"));
        const Time horizon = specInt(spec, "horizon");
        WorkloadParams params;
        params.processors = static_cast<int>(specInt(spec, "processors"));
        params.tasks_per_processor =
            static_cast<int>(specInt(spec, "tasks-per-proc"));
        params.utilization_per_processor = specDouble(spec, "util");
        params.global_resources =
            static_cast<int>(specInt(spec, "resources"));
        params.cs_max = specInt(spec, "cs-max");
        params.suspension_prob = specDouble(spec, "suspend-prob");
        const int sleep_ms = static_cast<int>(specInt(spec, "sleep-ms"));
        (void)seed_base;  // keys carry the derived seed directly

        return [=](const std::string& key) {
          FleetResult out;
          out.key = key;
          std::uint64_t derived = 0;
          bool key_ok = key.size() > 1 && key[0] == 's';
          if (key_ok) {
            const char* begin = key.data() + 1;
            const char* end = key.data() + key.size();
            const auto [ptr, ec] = std::from_chars(begin, end, derived);
            key_ok = ec == std::errc() && ptr == end;
          }
          if (!key_ok) {
            out.payload = "malformed sweep key '" + key + "'";
            return out;
          }
          if (sleep_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
          }
          // Rng(derived) == SweepRunner::rngFor(seed_base, s): identical
          // bytes to the in-process sweep body for the same key.
          Rng rng(derived);
          const TaskSystem sys = generateWorkload(params, rng);
          const ProtocolAnalysis analysis = analyzeUnder(kind, sys);
          SimConfig config;
          config.horizon = horizon;
          config.record_trace = false;
          const SimResult r = simulate(kind, sys, config);
          const obs::Counters& c = r.counters;
          out.ok = true;
          out.payload =
              strf(derived, ',', analysis.report.rta_all ? 1 : 0, ',',
                   c.deadline_misses, ',', c.jobs_released, ',',
                   c.jobs_finished, ',', c.totalAcquisitions(), ',',
                   c.totalContendedWaits(), ',', c.totalHandoffs(), ',',
                   c.preemptions, ',', c.migrations);
          return out;
        };
      });
}

void applyChaosAids(const std::string& key) {
  const auto markOnce = [](const char* mark_env) {
    const char* mark = std::getenv(mark_env);
    if (mark == nullptr) return true;  // no mark file: fire every time
    const int fd = ::open(mark, O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) return false;  // someone already fired
    ::close(fd);
    return true;
  };
  const char* crash_key = std::getenv("MPCP_FABRIC_CRASH_KEY");
  if (crash_key != nullptr && key == crash_key &&
      markOnce("MPCP_FABRIC_CRASH_MARK")) {
    ::kill(::getpid(), SIGKILL);
  }
  const char* wedge_key = std::getenv("MPCP_FABRIC_WEDGE_KEY");
  if (wedge_key != nullptr && key == wedge_key &&
      markOnce("MPCP_FABRIC_WEDGE_MARK")) {
    const char* ms_text = std::getenv("MPCP_FABRIC_WEDGE_MS");
    const long ms = ms_text != nullptr ? std::atol(ms_text) : 3000;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

}  // namespace mpcp::exec::fabric
