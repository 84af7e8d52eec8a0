#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layerMetricCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue = {
      {"engine.simulate_ms", "ms"},
      {"engine.simulate_ms.mpcp", "ms"},
      {"engine.simulate_ms.dpcp", "ms"},
      {"engine.simulate_ms.spin-fifo", "ms"},
      {"engine.jobs", "count"},
      {"engine.jobs_per_s", "1/s"},
      {"engine.simulate_traced_ms", "ms"},
      {"engine.trace_events", "count"},
      {"engine.trace_events_per_s", "1/s"},
      {"engine.acquisitions", "count"},
      {"engine.contended_waits", "count"},
      {"engine.preemptions", "count"},
      {"analysis.ceilings_ms", "ms"},
      {"analysis.blocking_ms", "ms"},
      {"analysis.rta_ms", "ms"},
      {"analysis.analyze_ms", "ms"},
      {"analysis.analyze_ms.mpcp", "ms"},
      {"analysis.analyze_ms.dpcp", "ms"},
      {"analysis.analyze_ms.hybrid", "ms"},
      {"analysis.analyze_ms.spin-fifo", "ms"},
      {"analysis.analyze_ms.spin-prio", "ms"},
      {"analysis.accept_frac", "frac"},
      {"taskgen.generate_ms", "ms"},
      {"taskgen.systems", "count"},
      {"model.parse_ms", "ms"},
      {"model.parse_bytes", "B"},
      {"trace.invariants_ms", "ms"},
      {"trace.perfetto_ms", "ms"},
      {"trace.perfetto_bytes", "B"},
      {"exec.execute_ms", "ms"},
      {"exec.body_ms", "ms"},
      {"exec.overhead_per_key_us", "us"},
      {"exec.campaign_other_ms", "ms"},
      {"exec.child_peak_rss_mb", "MB"},
      {"exec.journal_write_ms", "ms"},
      {"exec.journal_fsync_ms", "ms"},
      {"exec.journal_fsyncs", "count"},
      {"exec.journal_bytes", "B"},
      {"fabric.merge_ms", "ms"},
      {"fabric.lease_rtt_p50_ms", "ms"},
      {"fabric.lease_rtt_tail_ms", "ms"},
      {"fabric.leases_granted", "count"},
      {"fabric.leases_stolen", "count"},
      {"fabric.reaped", "count"},
      {"fabric.duplicate_results", "count"},
      {"fabric.useful_result_frac", "frac"},
      {"fabric.setup_ms", "ms"},
      {"fabric.encode_us_per_frame", "us"},
      {"fabric.decode_us_per_frame", "us"},
      {"bench.trace_overhead_frac", "frac"},
  };
  return catalogue;
}

std::vector<std::string> workloadNames() {
  return {"sweep-large", "analyze-wide", "sweep-tiny-fleet", "simulate-traced"};
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "sweep-large") return makeSweepLarge();
  if (name == "analyze-wide") return makeAnalyzeWide();
  if (name == "sweep-tiny-fleet") return makeSweepTinyFleet();
  if (name == "simulate-traced") return makeSimulateTraced();
  return nullptr;
}

double cpuSeconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

std::uint64_t csvColumn(const std::string& row, int i) {
  std::size_t pos = 0;
  for (int k = 0; k < i; ++k) pos = row.find(',', pos) + 1;
  return std::stoull(row.substr(pos, row.find(',', pos) - pos));
}

std::vector<int> sampleKeys(int n, int stride) {
  std::vector<int> keys;
  for (int k = 0; k < n; k += stride) keys.push_back(k);
  return keys;
}

void PhaseResult::foldBatch(std::uint64_t keys, double setup, double timed_s,
                            double cpu_s) {
  setup_s.push_back(setup);
  batch_p50_ms.push_back(median(key_ms));
  batch_tail_ms.push_back(tailPercentile(key_ms));
  if (best_key_ms.empty()) {
    best_key_ms = key_ms;
  } else if (key_ms.size() != best_key_ms.size()) {
    errors.push_back("a batch timed " + std::to_string(key_ms.size()) +
                     " keys, the first " + std::to_string(best_key_ms.size()));
  } else {
    for (std::size_t i = 0; i < key_ms.size(); ++i) {
      best_key_ms[i] = std::min(best_key_ms[i], key_ms[i]);
    }
  }
  key_ms.clear();
  keys_per_s.push_back(timed_s > 0 ? static_cast<double>(keys) / timed_s : 0);
  cpu_ms_per_key.push_back(keys > 0 ? 1e3 * cpu_s / static_cast<double>(keys)
                                    : 0);
}

double PhaseResult::p50Ms() const {
  return per_key_latency ? median(best_key_ms) : median(batch_p50_ms);
}

Tail PhaseResult::tailMs() const {
  if (per_key_latency) return tailPercentile(best_key_ms);
  if (batch_tail_ms.empty()) return Tail{};
  Tail t = batch_tail_ms.front();
  std::vector<double> values;
  for (const Tail& b : batch_tail_ms) values.push_back(b.value);
  t.value = median(values);
  return t;
}

void foldBatchDigest(PhaseResult& out, int batch, const std::string& digest) {
  if (batch == 0) {
    out.digest = digest;
  } else if (digest != out.digest) {
    out.errors.push_back("batch " + std::to_string(batch) + " digest " +
                         digest + " differs from the first batch's " +
                         out.digest);
  }
}

void setLayer(PhaseResult& out, const std::string& name, double value) {
  for (const auto& [n, unit] : layerMetricCatalogue()) {
    if (n == name) {
      out.layers[name] = Metric{value, unit};
      return;
    }
  }
  throw std::logic_error("unknown layer metric " + name);
}

}  // namespace perfbench
