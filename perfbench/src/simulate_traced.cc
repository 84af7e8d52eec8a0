// simulate-traced — `mpcp_cli simulate FILE --perfetto OUT` on contended
// systems.
//
// Set-up generates kSystems 8x6 systems in which every task shares
// global resources (sharing probability 1.0, critical sections up to 60
// ticks). A key is one system under one protocol (mpcp -> dpcp ->
// spin-fifo by key index): simulate with the trace recorded over 100 000
// ticks, audit mutual exclusion (plus priority-ordered handoff for the
// priority-queued protocols; spin-fifo grants in FIFO order by design),
// and render the Perfetto JSON into memory. Recording the trace forces
// the engine's eager crediting path and trace appends, so the trace
// module is the main cost — the same engine as sweep-large, used
// differently.
#include <optional>
#include <sstream>

#include "common/strf.h"
#include "core/protocol_registry.h"
#include "core/simulate.h"
#include "stats.h"
#include "taskgen/generator.h"
#include "trace/invariants.h"
#include "trace/perfetto.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mpcp;

constexpr int kSystems = 96;
constexpr Time kHorizon = 100'000;
constexpr int kSampleStride = 16;
constexpr ProtocolKind kCycle[] = {ProtocolKind::kMpcp, ProtocolKind::kDpcp,
                                   ProtocolKind::kSpinFifo};

// A system's cost here grows with the jobs it releases over the horizon,
// and with 48 log-uniform periods that count is heavy-tailed: a few
// systems with short periods would dominate a batch and make the run's
// speed depend on the seed. Each system is therefore drawn until its job
// count lands in [kJobsLo, kJobsHi] (about a third of all draws do).
constexpr double kJobsLo = 850;
constexpr double kJobsHi = 1150;
constexpr std::uint64_t kMaxDraws = 64;

WorkloadParams contendedParams() {
  WorkloadParams p;
  p.processors = 8;
  p.tasks_per_processor = 6;
  p.global_sharing_prob = 1.0;
  p.cs_max = 60;
  return p;
}

double jobsInHorizon(const TaskSystem& sys) {
  double jobs = 0;
  for (const Task& t : sys.tasks()) {
    jobs += static_cast<double>(kHorizon) / static_cast<double>(t.period);
  }
  return jobs;
}

/// The first of draws Rng(seed * kMaxDraws + d) whose job count is in
/// the band (the last draw if none is).
TaskSystem generateSized(std::uint64_t seed) {
  for (std::uint64_t d = 0;; ++d) {
    Rng rng(seed * kMaxDraws + d);
    TaskSystem sys = generateWorkload(contendedParams(), rng);
    const double jobs = jobsInHorizon(sys);
    if ((jobs >= kJobsLo && jobs <= kJobsHi) || d + 1 == kMaxDraws) return sys;
  }
}

struct KeyOutput {
  SimResult result;
  InvariantReport invariants;
  std::string perfetto;
};

KeyOutput runKey(const TaskSystem& sys, ProtocolKind kind, Tracer& tracer,
                 std::int64_t k) {
  KeyOutput out;
  const Scope key(tracer, "key", k);
  {
    const Scope s(tracer, strf("engine.simulate_traced.", toString(kind)), k,
                  key.id());
    SimConfig config;
    config.horizon = kHorizon;
    config.record_trace = true;
    out.result = simulate(kind, sys, config);
  }
  {
    const Scope s(tracer, "trace.invariants", k, key.id());
    out.invariants = checkMutualExclusion(sys, out.result);
    if (kind != ProtocolKind::kSpinFifo) {
      InvariantReport handoff = checkPriorityOrderedHandoff(sys, out.result);
      for (std::string& v : handoff.violations) {
        out.invariants.violations.push_back(std::move(v));
      }
    }
  }
  const Scope s(tracer, "trace.perfetto", k, key.id());
  std::ostringstream os;
  writePerfettoTrace(os, sys, out.result);
  out.perfetto = std::move(os).str();
  return out;
}

std::string keyDigest(const KeyOutput& o) {
  Digest d;
  d.add(o.perfetto);
  d.add(static_cast<std::uint64_t>(o.result.trace.size()));
  d.add(static_cast<std::uint64_t>(o.result.segments.size()));
  return d.hex();
}

class SimulateTraced final : public Workload {
 public:
  PhaseResult run(const Options& options, Tracer& tracer,
                  double seconds) override {
    PhaseResult out;
    const std::uint64_t seed_base = options.seed * 1'000'000;
    std::vector<TaskSystem> systems;
    std::vector<std::string> first_digests;
    std::uint64_t perfetto_bytes = 0;
    runBatches(seconds, [&](int b) {
      const std::int64_t t_start = nowNs();
      systems.clear();
      for (int i = 0; i < kSystems; ++i) {
        const Scope gen(tracer, "taskgen.generate", i);
        systems.push_back(generateSized(seed_base + static_cast<std::uint64_t>(i)));
      }

      const double cpu0 = cpuSeconds();
      const std::int64_t first = nowNs();
      Digest digest;
      for (int k = 0; k < kSystems; ++k) {
        const ProtocolKind kind = kCycle[k % 3];
        const std::int64_t t0 = nowNs();
        const KeyOutput o =
            runKey(systems[static_cast<std::size_t>(k)], kind, tracer, k);
        out.key_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        if (!o.invariants.ok()) {
          out.errors.push_back(strf("simulate-traced key ", k, " (",
                                    toString(kind), "): ",
                                    o.invariants.violations.front()));
        }
        const std::string d = keyDigest(o);
        digest.add(d);
        if (b == 0) {
          first_digests.push_back(d);
          const obs::Counters& c = o.result.counters;
          out.sim.jobs += c.jobs_released;
          out.sim.acquisitions += c.totalAcquisitions();
          out.sim.contended_waits += c.totalContendedWaits();
          out.sim.preemptions += c.preemptions;
          out.sim.trace_events += o.result.trace.size();
          perfetto_bytes += o.perfetto.size();
        }
      }
      out.foldBatch(kSystems, static_cast<double>(first - t_start) / 1e9,
                    static_cast<double>(nowNs() - first) / 1e9,
                    cpuSeconds() - cpu0);
      out.attempted += kSystems;
      out.completed += kSystems;
      foldBatchDigest(out, b, digest.hex());
      ++out.batches;
    });

    Tracer off(false);
    for (const int k : sampleKeys(kSystems, kSampleStride)) {
      const KeyOutput o =
          runKey(systems[static_cast<std::size_t>(k)], kCycle[k % 3], off, k);
      if (keyDigest(o) != first_digests[static_cast<std::size_t>(k)]) {
        out.errors.push_back(
            strf("simulate-traced key ", k, ": recomputed trace differs"));
      }
    }

    if (tracer.enabled()) {
      const SpanTotals sim = totals(tracer, "engine.simulate_traced", true);
      setLayer(out, "engine.simulate_traced_ms", sim.meanMs());
      setLayer(out, "engine.trace_events",
               static_cast<double>(out.sim.trace_events));
      setLayer(out, "engine.trace_events_per_s",
               sim.total_ms > 0 ? static_cast<double>(out.sim.trace_events) *
                                      out.batches / (sim.total_ms / 1e3)
                                : 0);
      setLayer(out, "engine.jobs", static_cast<double>(out.sim.jobs));
      setLayer(out, "trace.invariants_ms",
               totals(tracer, "trace.invariants").meanMs());
      setLayer(out, "trace.perfetto_ms",
               totals(tracer, "trace.perfetto").meanMs());
      setLayer(out, "trace.perfetto_bytes", static_cast<double>(perfetto_bytes));
      setLayer(out, "taskgen.generate_ms",
               totals(tracer, "taskgen.generate").meanMs());
      setLayer(out, "taskgen.systems", kSystems);
      out.covered_spans = {"key"};
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> makeSimulateTraced() {
  return std::make_unique<SimulateTraced>();
}

}  // namespace perfbench
