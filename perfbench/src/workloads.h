// The benchmark's workloads and what one timed phase of each reports.
//
// Every workload is a closed loop: one client runs a *batch* — one
// invocation of the user-facing command over a fixed, seed-derived key
// set — waits for it to finish, and starts the next, until the phase's
// time is up (always at least one batch). Every batch repeats the same
// keys, so every batch's output digest must equal the first one's, and
// the simulated statistics repeat exactly.
//
// Timing conventions:
//   * a batch's set-up runs from the batch's start to its first key
//     dispatch; its timed part runs from that dispatch to the batch's end;
//   * keys_per_s and cpu_ms_per_key are taken per batch (rates over the
//     timed part only), and a phase reports its best batch: load from
//     outside the benchmark only ever slows a batch down, so the best
//     batch is the least disturbed one, while a slower program slows
//     every batch, the best one included;
//   * likewise a key's latency is its best over the phase's batches, and
//     the key-latency p50 and tail are taken over those per-key bests, so
//     a stall counts only if it hits the same key in every batch. Where a
//     key's latency depends on its place in the batch rather than on its
//     own work (the fleet's keys wait behind earlier keys of their lease
//     and behind other results at the coordinator, differently every
//     batch), a per-key best would pick each key's luckiest place; such a
//     workload clears per_key_latency, and the phase reports the median
//     over batches of each batch's p50 and tail instead;
//   * set-up time is the median over batches;
//   * per-layer *_ms metrics are mean milliseconds per call of that
//     layer; counts are per batch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Scratch directory for journals, shards and sockets.
  std::string work_dir;
  /// The fleet worker binary (sweep-tiny-fleet).
  std::string worker_bin;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Simulated statistics of one batch. They depend only on the inputs,
/// so they must be identical in the traced and the untraced phase.
struct SimTotals {
  std::uint64_t jobs = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended_waits = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t trace_events = 0;
  bool operator==(const SimTotals&) const = default;
};

struct PhaseResult {
  std::uint64_t attempted = 0;  ///< keys dispatched
  std::uint64_t completed = 0;  ///< keys that produced a result
  std::uint64_t failed = 0;     ///< RunFailure / not-ok FleetResult
  /// Per-key latencies of the batch in progress, in the same key order
  /// every batch; foldBatch() folds them into best_key_ms and clears them.
  std::vector<double> key_ms;
  /// Each key's lowest latency over the batches so far.
  std::vector<double> best_key_ms;
  /// Each batch's key-latency median and tail.
  std::vector<double> batch_p50_ms;
  std::vector<Tail> batch_tail_ms;
  /// False when a key's latency depends on its place in the batch (see
  /// the timing conventions above); p50Ms() and tailMs() then take the
  /// median batch figures instead of the per-key bests.
  bool per_key_latency = true;
  // Per batch: set-up seconds, completed keys per second of the timed
  // part, and user+sys CPU ms (self + reaped children) per key.
  std::vector<double> setup_s;
  std::vector<double> keys_per_s;
  std::vector<double> cpu_ms_per_key;
  int batches = 0;
  std::string digest;           ///< first batch's outputs
  SimTotals sim;                ///< first batch
  std::vector<std::string> errors;  ///< correctness failures
  /// Per-layer metrics; only the traced phase fills them.
  Metrics layers;
  /// Parent spans whose children must account for their time.
  std::vector<std::string> covered_spans;

  /// Records one finished batch's timing (after its key_ms are in). A
  /// batch that timed another number of keys than the first is an error.
  void foldBatch(std::uint64_t keys, double setup, double timed_s,
                 double cpu_s);

  /// Median and tail of best_key_ms, or with per_key_latency cleared the
  /// median over batches of batch_p50_ms and of batch_tail_ms (whose
  /// percentile and counts are then the first batch's).
  [[nodiscard]] double p50Ms() const;
  [[nodiscard]] Tail tailMs() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs batches for at least `seconds` (at least one batch).
  [[nodiscard]] virtual PhaseResult run(const Options& options,
                                        Tracer& tracer, double seconds) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name);
[[nodiscard]] std::vector<std::string> workloadNames();

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports all of them; layers a workload does not exercise read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layerMetricCatalogue();

// Shared by the workload implementations.

/// User+system CPU seconds of this process plus its reaped children.
[[nodiscard]] double cpuSeconds();

/// Calls batch(b) for b = 0, 1, ... until `seconds` have passed since
/// the first call started; at least once.
template <typename F>
void runBatches(double seconds, F&& batch) {
  const std::int64_t t0 = nowNs();
  int b = 0;
  do {
    batch(b++);
  } while (static_cast<double>(nowNs() - t0) / 1e9 < seconds);
}

/// Field `i` (0-based) of a comma-separated row of integers.
[[nodiscard]] std::uint64_t csvColumn(const std::string& row, int i);

/// Indices in [0, n) checked by recomputation: every `stride`-th one.
[[nodiscard]] std::vector<int> sampleKeys(int n, int stride);

/// Folds a batch's outputs into the phase: digest check against the
/// first batch, failure counts.
void foldBatchDigest(PhaseResult& out, int batch, const std::string& digest);

/// Sets `name` in out.layers (unit from the catalogue).
void setLayer(PhaseResult& out, const std::string& name, double value);

std::unique_ptr<Workload> makeSweepLarge();
std::unique_ptr<Workload> makeAnalyzeWide();
std::unique_ptr<Workload> makeSweepTinyFleet();
std::unique_ptr<Workload> makeSimulateTraced();

}  // namespace perfbench
