// perfbench — runs one benchmark workload and prints its report.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// --trace 0 runs the workload untraced for S seconds and reports the
// end-to-end metrics. --trace 1 runs it untraced for S/2 seconds, then
// traced for S/2 seconds, and reports the per-layer metrics of the
// traced phase; the keys/s gap between the two phases is the tracing
// overhead. The traced phase must pass its self-check: the child spans
// of each covered span lie inside it, do not overlap, and account for
// at least (1 - kCoverageSlack) of its time; and the simulated
// statistics must equal the untraced phase's.
//
// The last stdout line is one JSON object: metrics, correctness, the
// first batch's output digest, and the build's provenance. run.py turns
// it into the benchmark's result line. Exit status: 0 on a correct run,
// 1 when a correctness check failed, 2 on bad usage, 3 on a build that
// keeps MPCP_DCHECK (assertions) compiled in.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "exec/fabric/work.h"
#include "exec/interrupt.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr double kCoverageSlack = 0.05;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ",") + jsonNumber(v[i]);
  }
  return out + "]";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
/// does not carry over the launcher's peak across exec().
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with MPCP_DCHECK "
               "compiled in (NDEBUG is not defined); build with "
               "-DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n";
    return 2;
  }
  const std::unique_ptr<Workload> workload = makeWorkload(args.workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  mpcp::exec::installInterruptHandlers();
  mpcp::exec::fabric::registerSweepFleetBody();
  std::filesystem::create_directories(args.work_dir);

  Options options;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  options.worker_bin = PERFBENCH_WORKER_BIN;

  std::vector<std::string> errors;
  Metrics metrics;
  std::ostringstream info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;

  const auto collect = [&](const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    digest = r.digest;
  };

  if (!args.trace) {
    Tracer off(false);
    const PhaseResult r = workload->run(options, off, args.seconds);
    collect(r);
    const Tail tail = r.tailMs();
    metrics["keys_per_s"] = {maxOf(r.keys_per_s), "1/s"};
    metrics["key_p50_ms"] = {r.p50Ms(), "ms"};
    metrics["key_tail_ms"] = {tail.value, "ms"};
    metrics["cpu_ms_per_key"] = {minOf(r.cpu_ms_per_key), "ms"};
    metrics["setup_s"] = {median(r.setup_s), "s"};
    metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    info << "\"batches\":" << r.batches << ",\"keys\":" << r.completed
         << ",\"key_tail_percentile\":" << jsonNumber(tail.percentile)
         << ",\"key_tail_beyond\":" << tail.beyond
         << ",\"key_tail_samples\":" << tail.samples
         << ",\"batch_keys_per_s\":" << jsonList(r.keys_per_s)
         << ",\"failed_frac\":"
         << jsonNumber(static_cast<double>(r.failed) /
                       static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)));
  } else {
    Tracer off(false);
    const PhaseResult plain = workload->run(options, off, args.seconds / 2);
    Tracer on(true);
    PhaseResult traced = workload->run(options, on, args.seconds / 2);
    collect(plain);
    collect(traced);
    if (plain.digest != traced.digest) {
      errors.push_back("traced digest " + traced.digest +
                       " differs from untraced " + plain.digest);
    }
    if (!(plain.sim == traced.sim)) {
      errors.push_back("simulated statistics differ between the traced and "
                       "the untraced phase");
    }
    setLayer(traced, "engine.acquisitions",
             static_cast<double>(traced.sim.acquisitions));
    setLayer(traced, "engine.contended_waits",
             static_cast<double>(traced.sim.contended_waits));
    setLayer(traced, "engine.preemptions",
             static_cast<double>(traced.sim.preemptions));
    setLayer(traced, "bench.trace_overhead_frac",
             maxOf(traced.keys_per_s) > 0
                 ? maxOf(plain.keys_per_s) / maxOf(traced.keys_per_s) - 1
                 : 0);
    for (const auto& [name, unit] : layerMetricCatalogue()) {
      metrics[name] = traced.layers.count(name) != 0 ? traced.layers[name]
                                                     : Metric{0, unit};
    }
    info << "\"batches\":" << traced.batches << ",\"keys\":" << traced.completed
         << ",\"coverage_slack\":" << jsonNumber(kCoverageSlack)
         << ",\"coverage\":{";
    bool first = true;
    for (const std::string& parent : traced.covered_spans) {
      const Coverage c = coverage(on, parent);
      info << (first ? "" : ",") << jsonString(parent) << ":{\"share\":"
           << jsonNumber(c.share()) << ",\"spans\":" << c.parents
           << ",\"violations\":" << c.violations << "}";
      first = false;
      if (c.parents == 0 || c.violations > 0 ||
          c.share() < 1 - kCoverageSlack || c.share() > 1 + 1e-9) {
        errors.push_back("self-check: children of '" + parent + "' cover " +
                         jsonNumber(c.share()) + " of its time with " +
                         std::to_string(c.violations) +
                         " misplaced spans (allowed slack " +
                         jsonNumber(kCoverageSlack) + ")");
      }
    }
    info << "}";
    const std::string spans_path =
        args.work_dir + "/" + args.workload + ".spans.json";
    std::ofstream(spans_path) << on.toJson();
    info << ",\"spans_file\":" << jsonString(spans_path);
  }

  std::ostringstream line;
  line << "{\"workload\":" << jsonString(args.workload)
       << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"correct\":" << (errors.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"digest\":" << jsonString(digest) << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
         << jsonNumber(m.value) << ",\"unit\":" << jsonString(m.unit) << "}";
    first = false;
  }
  line << "},\"info\":{" << info.str() << "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    line << (i == 0 ? "" : ",") << jsonString(errors[i]);
  }
  line << "],\"provenance\":{\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"ndebug\":true,\"compiler\":" << jsonString(PERFBENCH_COMPILER)
       << ",\"cpu_model\":" << jsonString(cpuModel())
       << ",\"nproc\":" << std::thread::hardware_concurrency() << "}}";
  std::cout << line.str() << std::endl;
  return errors.empty() ? 0 : 1;
}
