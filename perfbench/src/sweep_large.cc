// sweep-large — `mpcp_cli sweep --isolate --journal` on 128-task systems.
//
// One batch is one exec::runCampaign over kKeys seeds with a journal,
// one pool thread and exec::SubprocessExecutor (wrapped by the timing
// decorator), exactly the loop cmdSweep runs. A key is the sweep body:
// generate a 16x8 system, analyzeUnder, a traceless simulate over
// 300 000 ticks, and a CSV row. The protocol cycles mpcp -> dpcp ->
// spin-fifo by key index, so a change to one protocol's hooks cannot
// hide behind the other two. The engine does most of the work; fork,
// pipe, the child's cold caches and the journal fsyncs add the rest.
#include <filesystem>
#include <optional>

#include "common/strf.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "core/simulate.h"
#include "exec/campaign.h"
#include "exec/subprocess.h"
#include "stats.h"
#include "taskgen/generator.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mpcp;

constexpr int kKeys = 200;
constexpr Time kHorizon = 300'000;
constexpr int kSampleStride = 16;
constexpr ProtocolKind kCycle[] = {ProtocolKind::kMpcp, ProtocolKind::kDpcp,
                                   ProtocolKind::kSpinFifo};

WorkloadParams sweepParams() {
  WorkloadParams p;
  p.processors = 16;
  p.tasks_per_processor = 8;
  p.utilization_per_processor = 0.45;
  p.global_resources = 6;
  p.cs_max = 30;
  return p;
}

/// cmdSweep's body with the protocol picked by key index; the row gains
/// a protocol column.
std::string sweepRow(std::uint64_t seed_base, int s, Rng& rng,
                     Tracer& tracer) {
  const ProtocolKind kind = kCycle[s % 3];
  std::int32_t span = tracer.open("taskgen.generate", s);
  const TaskSystem sys = generateWorkload(sweepParams(), rng);
  tracer.close(span);

  span = tracer.open("analysis.analyze", s);
  const ProtocolAnalysis analysis = analyzeUnder(kind, sys);
  tracer.close(span);

  span = tracer.open(strf("engine.simulate.", toString(kind)), s);
  SimConfig config;
  config.horizon = kHorizon;
  config.record_trace = false;
  const SimResult r = simulate(kind, sys, config);
  tracer.close(span);

  span = tracer.open("bench.row", s);
  const obs::Counters& c = r.counters;
  std::string row =
      strf(seed_base + static_cast<std::uint64_t>(s), ',', toString(kind), ',',
           analysis.report.rta_all ? 1 : 0, ',', c.deadline_misses, ',',
           c.jobs_released, ',', c.jobs_finished, ',', c.totalAcquisitions(),
           ',', c.totalContendedWaits(), ',', c.totalHandoffs(), ',',
           c.preemptions, ',', c.migrations);
  tracer.close(span);
  return row;
}

class SweepLarge final : public Workload {
 public:
  PhaseResult run(const Options& options, Tracer& tracer,
                  double seconds) override {
    namespace fs = std::filesystem;
    PhaseResult out;
    const std::uint64_t seed_base = options.seed * 1'000'000;
    const std::string journal = options.work_dir + "/sweep-large.journal";
    exec::SubprocessExecutor subprocess;
    exp::SweepRunner runner(1);
    const auto body = [&](int s, Rng& rng) {
      return sweepRow(seed_base, s, rng, tracer);
    };

    std::vector<std::optional<std::string>> rows;
    std::vector<double> first_execute_ms;
    double execute_ms = 0;
    double campaign_ms = 0;
    double child_rss_mb = 0;
    runBatches(seconds, [&](int b) {
      fs::remove(journal);
      TimingExecutor timing(subprocess, tracer);
      exec::CampaignOptions copt;
      copt.journal_path = journal;
      copt.config_fingerprint =
          strf("perfbench sweep-large seed=", options.seed, " keys=", kKeys);
      copt.executor = &timing;

      const std::int64_t t_start = nowNs();
      const double cpu0 = cpuSeconds();
      const std::int32_t span = tracer.open("exec.campaign", -1);
      const exec::CampaignOutcome oc =
          exec::runCampaign(runner, kKeys, seed_base, copt, body);
      tracer.close(span);
      const std::int64_t t_end = nowNs();
      const double cpu_s = cpuSeconds() - cpu0;

      const auto& calls = timing.calls();
      const std::int64_t first = calls.empty() ? t_end : calls.front().start_ns;
      double batch_execute_ms = 0;
      for (const TimingExecutor::Call& c : calls) {
        const double ms = static_cast<double>(c.end_ns - c.start_ns) / 1e6;
        out.key_ms.push_back(ms);
        batch_execute_ms += ms;
        if (b == 0) first_execute_ms.push_back(ms);
      }
      out.foldBatch(oc.exec.completed,
                    static_cast<double>(first - t_start) / 1e9,
                    static_cast<double>(t_end - first) / 1e9, cpu_s);
      execute_ms += batch_execute_ms;
      campaign_ms += static_cast<double>(t_end - t_start) / 1e6;
      child_rss_mb = std::max(child_rss_mb, timing.childPeakRssMb());

      out.attempted += oc.exec.dispatched;
      out.completed += oc.exec.completed;
      out.failed += oc.failures.size();
      Digest digest;
      for (const auto& p : oc.payloads) digest.add(p ? *p : "<missing>");
      foldBatchDigest(out, b, digest.hex());
      if (b == 0) rows = oc.payloads;
      ++out.batches;
    });
    fs::remove(journal);

    // The first batch's simulated statistics, and its rows recomputed
    // in-thread for a sample of keys (which also gives the in-thread
    // time the executor overhead is measured against).
    std::uint64_t accepted = 0;
    for (const auto& row : rows) {
      if (!row) continue;
      out.sim.jobs += csvColumn(*row, 4);
      out.sim.acquisitions += csvColumn(*row, 6);
      out.sim.contended_waits += csvColumn(*row, 7);
      out.sim.preemptions += csvColumn(*row, 9);
      accepted += csvColumn(*row, 2);
    }
    Tracer off(false);
    double overhead_ms = 0;
    const std::vector<int> sample = sampleKeys(kKeys, kSampleStride);
    for (const int s : sample) {
      Rng rng = exp::SweepRunner::rngFor(seed_base, s);
      const std::int64_t t0 = nowNs();
      const std::string row = sweepRow(seed_base, s, rng, off);
      const double ms = static_cast<double>(nowNs() - t0) / 1e6;
      if (!rows[static_cast<std::size_t>(s)] ||
          *rows[static_cast<std::size_t>(s)] != row) {
        out.errors.push_back(strf("sweep-large key ", s,
                                  ": isolated row differs from in-thread row"));
      }
      if (static_cast<std::size_t>(s) < first_execute_ms.size()) {
        overhead_ms += first_execute_ms[static_cast<std::size_t>(s)] - ms;
      }
    }

    if (tracer.enabled()) {
      const double keys = static_cast<double>(out.completed);
      const SpanTotals sim = totals(tracer, "engine.simulate", true);
      setLayer(out, "engine.simulate_ms", sim.meanMs());
      for (const ProtocolKind k : kCycle) {
        const std::string name = strf("engine.simulate.", toString(k));
        setLayer(out, strf("engine.simulate_ms.", toString(k)),
                 totals(tracer, name).meanMs());
      }
      setLayer(out, "engine.jobs", static_cast<double>(out.sim.jobs));
      setLayer(out, "engine.jobs_per_s",
               sim.total_ms > 0 ? static_cast<double>(out.sim.jobs) *
                                      out.batches / (sim.total_ms / 1e3)
                                : 0);
      setLayer(out, "analysis.analyze_ms",
               totals(tracer, "analysis.analyze").meanMs());
      setLayer(out, "analysis.accept_frac",
               static_cast<double>(accepted) / kKeys);
      setLayer(out, "taskgen.generate_ms",
               totals(tracer, "taskgen.generate").meanMs());
      setLayer(out, "taskgen.systems", kKeys);
      setLayer(out, "exec.execute_ms", keys > 0 ? execute_ms / keys : 0);
      setLayer(out, "exec.body_ms", totals(tracer, "exec.body").meanMs());
      setLayer(out, "exec.overhead_per_key_us",
               1e3 * overhead_ms / static_cast<double>(sample.size()));
      setLayer(out, "exec.campaign_other_ms",
               keys > 0 ? (campaign_ms - execute_ms) / keys : 0);
      setLayer(out, "exec.child_peak_rss_mb", child_rss_mb);
      out.covered_spans = {"exec.execute", "exec.body"};
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> makeSweepLarge() {
  return std::make_unique<SweepLarge>();
}

}  // namespace perfbench
