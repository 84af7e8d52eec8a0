// analyze-wide — `mpcp_cli analyze FILE --protocol P` over many files.
//
// Set-up generates a pool of task systems and serializes each to text,
// as a user's workload files would be; taskgen's cost lands in setup_s.
// A key is one (system, protocol) pair: parseTaskSystemFromString +
// analyzeUnder, over mpcp, dpcp, hybrid, spin-fifo and spin-prio. Most
// systems are 8x8 (64 tasks, well under a millisecond per analysis);
// every kBigEvery-th is 16x32 (512 tasks, milliseconds to tens of
// milliseconds), and those set key_tail_ms. The big systems share
// global resources with probability 0.2: at the generator's default 0.6
// every one of them is rejected under all five protocols, so the RTA
// would never iterate to a fixpoint on an accepted set.
//
// The traced run also replays the analysis of every kReplayStride-th key
// step by step (PriorityTables, the protocol's blocking factors, then
// analyzeSchedulability) to split analyze time into ceilings, blocking
// and RTA; the replay must reproduce analyzeUnder's result exactly.
#include <optional>

#include "analysis/profiles.h"
#include "common/strf.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "model/serialize.h"
#include "stats.h"
#include "taskgen/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mpcp;

constexpr int kSystems = 264;
constexpr int kBigEvery = 33;
constexpr int kReplayStride = 8;
constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kMpcp, ProtocolKind::kDpcp, ProtocolKind::kHybrid,
    ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio};
constexpr int kProtocolCount = 5;

WorkloadParams systemParams(int i) {
  WorkloadParams p;
  if (i % kBigEvery == kBigEvery - 1) {
    p.processors = 16;
    p.tasks_per_processor = 32;
    p.global_sharing_prob = 0.2;
  } else {
    p.processors = 8;
    p.tasks_per_processor = 8;
  }
  return p;
}

template <typename Breakdown>
void foldBreakdowns(const std::vector<Breakdown>& all,
                    std::vector<Duration>& blocking,
                    std::vector<Duration>& jitter) {
  for (const Breakdown& b : all) {
    blocking.push_back(b.total());
    jitter.push_back(b.remoteSuspension());
  }
}

/// analyzeUnder's pipeline one stage at a time, each stage in a span.
SchedulabilityReport replay(ProtocolKind kind, const TaskSystem& sys,
                            Tracer& tracer, std::int64_t key) {
  const Scope root(tracer, "analysis.breakdown", key);
  std::optional<PriorityTables> tables;
  {
    const Scope s(tracer, "analysis.ceilings", key, root.id());
    tables.emplace(sys);
  }
  std::vector<Duration> blocking;
  std::vector<Duration> jitter;
  std::vector<Duration> inflation;
  {
    const Scope s(tracer, "analysis.blocking", key, root.id());
    switch (kind) {
      case ProtocolKind::kMpcp:
        foldBreakdowns(MpcpBlockingAnalysis(sys, *tables).all(), blocking,
                       jitter);
        break;
      case ProtocolKind::kDpcp:
        foldBreakdowns(dpcpBlocking(sys, *tables), blocking, jitter);
        break;
      case ProtocolKind::kHybrid:
        foldBreakdowns(
            hybridBlocking(sys, *tables, defaultHybridPolicy(sys)), blocking,
            jitter);
        break;
      default: {
        const auto spin =
            spinBlocking(sys, kind == ProtocolKind::kSpinPrio);
        foldBreakdowns(spin, blocking, jitter);
        inflation = spinInflation(spin);
      }
    }
    const auto profiles = buildProfiles(sys);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      blocking[i] += profiles[i].total_suspension;
      jitter[i] += profiles[i].total_suspension;
    }
  }
  const Scope s(tracer, "analysis.rta", key, root.id());
  return analyzeSchedulability(sys, blocking, jitter, inflation);
}

bool sameReport(const SchedulabilityReport& a, const SchedulabilityReport& b) {
  if (a.rta_all != b.rta_all || a.ll_all != b.ll_all ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].blocking != b.tasks[i].blocking ||
        a.tasks[i].response_time != b.tasks[i].response_time) {
      return false;
    }
  }
  return true;
}

/// One verdict row: what `mpcp_cli analyze` decides, plus the bounds.
std::string verdictRow(int i, ProtocolKind kind, const ProtocolAnalysis& a) {
  std::int64_t sum_b = 0;
  std::int64_t sum_r = 0;
  for (const TaskVerdict& v : a.report.tasks) {
    sum_b += v.blocking;
    sum_r += v.response_time;
  }
  return strf(i, ',', toString(kind), ',', a.report.rta_all ? 1 : 0, ',',
              a.report.ll_all ? 1 : 0, ',', sum_b, ',', sum_r);
}

class AnalyzeWide final : public Workload {
 public:
  PhaseResult run(const Options& options, Tracer& tracer,
                  double seconds) override {
    PhaseResult out;
    const std::uint64_t seed_base = options.seed * 1'000'000;
    constexpr int kKeys = kSystems * kProtocolCount;
    std::uint64_t accepted = 0;
    std::uint64_t parse_bytes = 0;
    runBatches(seconds, [&](int b) {
      const std::int64_t t_start = nowNs();
      std::vector<std::string> files;
      files.reserve(kSystems);
      for (int i = 0; i < kSystems; ++i) {
        Rng rng(seed_base + static_cast<std::uint64_t>(i));
        const Scope gen(tracer, "taskgen.generate", i);
        files.push_back(
            serializeTaskSystemToString(generateWorkload(systemParams(i), rng)));
      }

      const double cpu0 = cpuSeconds();
      const std::int64_t first = nowNs();
      Digest digest;
      for (int k = 0; k < kKeys; ++k) {
        const int i = k / kProtocolCount;
        const ProtocolKind kind = kProtocols[k % kProtocolCount];
        const std::string& text = files[static_cast<std::size_t>(i)];
        const std::int64_t t0 = nowNs();
        std::optional<TaskSystem> sys;
        std::optional<ProtocolAnalysis> analysis;
        {
          const Scope key(tracer, "key", k);
          {
            const Scope s(tracer, "model.parse", k, key.id());
            sys.emplace(parseTaskSystemFromString(text));
          }
          const Scope s(tracer, strf("analysis.analyze.", toString(kind)), k,
                        key.id());
          analysis.emplace(analyzeUnder(kind, *sys));
        }
        out.key_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        digest.add(verdictRow(i, kind, *analysis));
        if (b == 0) {
          accepted += analysis->report.rta_all ? 1 : 0;
          parse_bytes += text.size();
        }
        if (tracer.enabled() && k % kReplayStride == 0 &&
            !sameReport(replay(kind, *sys, tracer, k), analysis->report)) {
          out.errors.push_back(strf("analyze-wide key ", k,
                                    ": staged replay differs from analyzeUnder"));
        }
      }
      out.foldBatch(kKeys, static_cast<double>(first - t_start) / 1e9,
                    static_cast<double>(nowNs() - first) / 1e9,
                    cpuSeconds() - cpu0);
      out.attempted += kKeys;
      out.completed += kKeys;
      foldBatchDigest(out, b, digest.hex());
      ++out.batches;
    });

    if (tracer.enabled()) {
      setLayer(out, "analysis.ceilings_ms",
               totals(tracer, "analysis.ceilings").meanMs());
      setLayer(out, "analysis.blocking_ms",
               totals(tracer, "analysis.blocking").meanMs());
      setLayer(out, "analysis.rta_ms", totals(tracer, "analysis.rta").meanMs());
      setLayer(out, "analysis.analyze_ms",
               totals(tracer, "analysis.analyze", true).meanMs());
      for (const ProtocolKind kind : kProtocols) {
        const std::string name = strf("analysis.analyze.", toString(kind));
        setLayer(out, strf("analysis.analyze_ms.", toString(kind)),
                 totals(tracer, name).meanMs());
      }
      setLayer(out, "analysis.accept_frac",
               static_cast<double>(accepted) / kKeys);
      setLayer(out, "taskgen.generate_ms",
               totals(tracer, "taskgen.generate").meanMs());
      setLayer(out, "taskgen.systems", kSystems);
      setLayer(out, "model.parse_ms", totals(tracer, "model.parse").meanMs());
      setLayer(out, "model.parse_bytes", static_cast<double>(parse_bytes));
      out.covered_spans = {"key", "analysis.breakdown"};
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> makeAnalyzeWide() {
  return std::make_unique<AnalyzeWide>();
}

}  // namespace perfbench
