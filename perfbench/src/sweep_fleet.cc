// sweep-tiny-fleet — `mpcp_cli sweep --workers 2 --journal` on 2x2
// systems.
//
// One batch is one exec::fabric::runFleetCampaign over kKeys seeds: the
// coordinator spawns 2 workers, leases them keys over a Unix socket,
// journals every grant and result, and merges the shard journals into
// the canonical journal at the end. A key is one seed of the "sweep-v1"
// body on a 2-processor, 2-task-per-processor system with a 2000-tick
// horizon, so the engine and analysis cost almost nothing and the
// fabric (frames, leases, polling) and journal fsyncs dominate.
//
// Per-key latency is grant -> result, seen through the timing JournalIo:
// runFleetCampaign writes a `start` record from FleetConfig::on_grant
// and a `done` record from FleetConfig::on_result. It is mostly the wait
// behind earlier keys of the lease and behind other results at the
// coordinator, which falls differently every batch, so the phase reports
// the median batch's p50 and tail rather than per-key bests.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strf.h"
#include "exec/campaign.h"
#include "exec/fabric/fleet_campaign.h"
#include "exec/fabric/wire.h"
#include "exec/fabric/work.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mpcp;
using namespace mpcp::exec::fabric;

constexpr int kKeys = 4000;
constexpr Time kHorizon = 2000;
constexpr int kWorkers = 2;
constexpr int kSampleStride = 64;
constexpr int kCodecRounds = 5;
constexpr std::size_t kLeaseChunk = 64;  // the coordinator's largest lease

WorkloadParams fleetParams() {
  WorkloadParams p;  // mpcp_cli's generator defaults, at 2x2
  p.processors = 2;
  p.tasks_per_processor = 2;
  p.utilization_per_processor = 0.4;
  p.global_resources = 2;
  p.cs_max = 20;
  return p;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CodecCost {
  double encode_us = 0;
  double decode_us = 0;
  bool ok = true;
};

/// encodeFrame / FrameDecoder on this workload's LEASE and RESULT
/// payloads: full-size leases of the batch's keys, and one RESULT per row.
CodecCost measureCodec(const std::vector<std::string>& keys,
                       const std::vector<std::string>& rows) {
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < keys.size(); i += kLeaseChunk) {
    std::string lease;
    for (std::size_t k = i; k < std::min(keys.size(), i + kLeaseChunk); ++k) {
      if (!lease.empty()) lease += ' ';
      lease += keys[k];
    }
    frames.push_back(Frame{FrameType::kLease, lease});
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    frames.push_back(Frame{FrameType::kResult, keys[i] + " ok\n" + rows[i]});
  }
  CodecCost cost;
  double encode_ns = 0;
  double decode_ns = 0;
  for (int round = 0; round < kCodecRounds; ++round) {
    std::string wire;
    const std::int64_t t0 = nowNs();
    for (const Frame& f : frames) wire += encodeFrame(f.type, f.payload);
    const std::int64_t t1 = nowNs();
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::size_t got = 0;
    for (FrameDecoder::Result r = decoder.next();
         r.status == FrameDecoder::Status::kFrame; r = decoder.next()) {
      cost.ok = cost.ok && got < frames.size() &&
                r.frame.payload == frames[got].payload;
      ++got;
    }
    const std::int64_t t2 = nowNs();
    cost.ok = cost.ok && got == frames.size();
    encode_ns += static_cast<double>(t1 - t0);
    decode_ns += static_cast<double>(t2 - t1);
  }
  const double n = static_cast<double>(frames.size()) * kCodecRounds;
  cost.encode_us = encode_ns / n / 1e3;
  cost.decode_us = decode_ns / n / 1e3;
  return cost;
}

class SweepTinyFleet final : public Workload {
 public:
  PhaseResult run(const Options& options, Tracer& tracer,
                  double seconds) override {
    namespace fs = std::filesystem;
    PhaseResult out;
    out.per_key_latency = false;
    const std::uint64_t seed_base = options.seed * 1'000'000;
    const std::string journal = options.work_dir + "/fleet.journal";
    const std::string shard_dir = options.work_dir + "/fleet.shards";
    const std::string spec =
        makeSweepBodySpec("mpcp", seed_base, kHorizon, fleetParams(), 0);
    const FleetBodyFactory* factory = findFleetBodyKind("sweep-v1");
    if (factory == nullptr) {
      out.errors.push_back("sweep-v1 fleet body is not registered");
      return out;
    }
    const FleetBodyFn local = (*factory)(spec);
    std::vector<std::string> keys;
    for (int s = 0; s < kKeys; ++s) keys.push_back(exec::runKey(seed_base, s));

    TimingJournalIo io;
    std::vector<std::string> rows;
    double write_ms = 0;
    double fsync_ms = 0;
    double merge_ms = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes = 0;
    obs::FleetCounters fleet;
    runBatches(seconds, [&](int b) {
      fs::remove(journal);
      fs::remove_all(shard_dir);
      fs::create_directories(shard_dir);
      io.reset();
      FleetCampaignOptions fopt;
      fopt.journal_path = journal;
      fopt.shard_dir = shard_dir;
      fopt.journal_io = &io;
      fopt.config_fingerprint =
          strf("perfbench sweep-tiny-fleet seed=", options.seed, " keys=", kKeys);
      fopt.fleet.spawn_workers = kWorkers;
      fopt.fleet.worker_bin = options.worker_bin;
      fopt.fleet.body_spec = spec;
      fopt.fleet.local_fn = local;

      const std::int64_t t_start = nowNs();
      const double cpu0 = cpuSeconds();
      const FleetCampaignOutcome fo =
          runFleetCampaign(kKeys, seed_base, fopt);
      const std::int64_t t_end = nowNs();
      const double cpu_s = cpuSeconds() - cpu0;

      const std::int64_t first = io.first_grant_ns > 0 ? io.first_grant_ns : t_end;
      std::int64_t last_done = first;
      for (const auto& [key, done] : io.done_ns) {
        const auto g = io.granted_ns.find(key);
        if (g == io.granted_ns.end()) continue;
        out.key_ms.push_back(static_cast<double>(done - g->second) / 1e6);
        tracer.add("fabric.lease", -1, Tracer::kNone, g->second, done);
        last_done = std::max(last_done, done);
      }
      const std::int32_t campaign =
          tracer.add("fabric.campaign", b, Tracer::kNone, t_start, t_end);
      tracer.add("fabric.setup", b, campaign, t_start, first);
      tracer.add("fabric.run", b, campaign, first, last_done);
      if (io.merge_end_ns > 0) {
        tracer.add("fabric.teardown", b, campaign, last_done, io.merge_start_ns);
        tracer.add("fabric.merge", b, campaign, io.merge_start_ns,
                   io.merge_end_ns);
        merge_ms += static_cast<double>(io.merge_end_ns - io.merge_start_ns) / 1e6;
      }
      write_ms += io.write_ms;
      fsync_ms += io.fsync_ms;
      fsyncs += io.fsyncs;
      bytes += io.bytes;
      fleet.merge(fo.fleet);

      out.attempted += kKeys;
      std::uint64_t done = 0;
      for (const auto& p : fo.payloads) done += p ? 1 : 0;
      out.completed += done;
      out.foldBatch(done, static_cast<double>(first - t_start) / 1e9,
                    static_cast<double>(t_end - first) / 1e9, cpu_s);
      out.failed += fo.failures.size();
      if (fo.fleet.degraded_local_runs > 0) {
        out.errors.push_back(strf("batch ", b, ": the fleet never came up; ",
                                  fo.fleet.degraded_local_runs,
                                  " keys ran in-process"));
      }
      // The merged journal is byte-identical to a serial journaled sweep.
      Digest digest;
      digest.add(readFile(journal));
      for (const auto& p : fo.payloads) digest.add(p ? *p : "<missing>");
      foldBatchDigest(out, b, digest.hex());
      if (b == 0) {
        for (const auto& p : fo.payloads) rows.push_back(p ? *p : "");
      }
      ++out.batches;
    });
    fs::remove(journal);
    fs::remove_all(shard_dir);

    std::uint64_t accepted = 0;
    for (const std::string& row : rows) {
      if (row.empty()) continue;
      // seed,rta_ok,misses,released,finished,acquisitions,contended,...
      out.sim.jobs += csvColumn(row, 3);
      out.sim.acquisitions += csvColumn(row, 5);
      out.sim.contended_waits += csvColumn(row, 6);
      out.sim.preemptions += csvColumn(row, 8);
      accepted += csvColumn(row, 1);
    }
    for (const int s : sampleKeys(kKeys, kSampleStride)) {
      const FleetResult r = local(keys[static_cast<std::size_t>(s)]);
      if (!r.ok || r.payload != rows[static_cast<std::size_t>(s)]) {
        out.errors.push_back(
            strf("sweep-tiny-fleet key ", s,
                 ": worker row differs from the in-thread sweep-v1 body"));
      }
    }

    if (tracer.enabled()) {
      const double keys_done = static_cast<double>(out.completed);
      const double batches = out.batches;
      const CodecCost codec = measureCodec(keys, rows);
      if (!codec.ok) out.errors.push_back("frame codec round trip failed");
      setLayer(out, "engine.jobs", static_cast<double>(out.sim.jobs));
      setLayer(out, "analysis.accept_frac",
               static_cast<double>(accepted) / kKeys);
      setLayer(out, "exec.journal_write_ms", write_ms / keys_done);
      setLayer(out, "exec.journal_fsync_ms", fsync_ms / keys_done);
      setLayer(out, "exec.journal_fsyncs", static_cast<double>(fsyncs) / batches);
      setLayer(out, "exec.journal_bytes", static_cast<double>(bytes) / batches);
      setLayer(out, "fabric.merge_ms", merge_ms / batches);
      setLayer(out, "fabric.lease_rtt_p50_ms", out.p50Ms());
      setLayer(out, "fabric.lease_rtt_tail_ms", out.tailMs().value);
      setLayer(out, "fabric.leases_granted",
               static_cast<double>(fleet.leases_granted) / batches);
      setLayer(out, "fabric.leases_stolen",
               static_cast<double>(fleet.leases_stolen) / batches);
      setLayer(out, "fabric.reaped",
               static_cast<double>(fleet.workers_reaped +
                                   fleet.no_progress_reaps) / batches);
      setLayer(out, "fabric.duplicate_results",
               static_cast<double>(fleet.duplicate_results) / batches);
      setLayer(out, "fabric.useful_result_frac",
               keys_done / (keys_done +
                            static_cast<double>(fleet.duplicate_results)));
      setLayer(out, "fabric.setup_ms", 1e3 * median(out.setup_s));
      setLayer(out, "fabric.encode_us_per_frame", codec.encode_us);
      setLayer(out, "fabric.decode_us_per_frame", codec.decode_us);
      out.covered_spans = {"fabric.campaign"};
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> makeSweepTinyFleet() {
  return std::make_unique<SweepTinyFleet>();
}

}  // namespace perfbench
