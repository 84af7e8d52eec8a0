// E11 — Section 5.1's closing remark: the deferred-execution penalty.
//
// A job that suspends on global semaphores releases its remaining
// computation "compressed"; a lower-priority local task can then suffer
// one extra preemption per period. We quantify:
//   * the penalty's magnitude in B_i as suspension opportunities (NG)
//     grow;
//   * its schedulability cost (acceptance with vs without the penalty);
//   * its necessity: a concrete two-task scenario where the analysis
//     WITHOUT the penalty accepts but the simulation misses a deadline —
//     i.e. dropping the term is unsound, which is why the paper includes
//     it.
#include <iostream>

#include "analysis/schedulability.h"
#include "bench_util.h"
#include "test_support.h"

using namespace mpcp;
using namespace mpcp::bench;

int main() {
  constexpr int kSeeds = 30;

  printHeader("deferred-execution share of B_i vs gcs count");
  std::cout << cell("max NG") << cell("B w/o defer") << cell("B with")
            << cell("defer share") << "\n";
  for (int ng : {1, 2, 4, 8}) {
    WorkloadParams p;
    p.processors = 4;
    p.tasks_per_processor = 3;
    p.utilization_per_processor = 0.4;
    p.global_resources = 2;
    p.max_gcs_per_task = ng;
    p.global_sharing_prob = 1.0;
    p.cs_max = 15;
    double without = 0, with = 0;
    std::int64_t tasks = 0;
    for (int s = 0; s < kSeeds; ++s) {
      Rng rng(8000 + static_cast<std::uint64_t>(s));
      const TaskSystem sys = generateWorkload(p, rng);
      const ProtocolAnalysis a0 = analyzeUnder(
          ProtocolKind::kMpcp, sys, {.include_deferred_execution = false});
      const ProtocolAnalysis a1 = analyzeUnder(ProtocolKind::kMpcp, sys);
      for (std::size_t i = 0; i < a0.blocking.size(); ++i) {
        without += static_cast<double>(a0.blocking[i]);
        with += static_cast<double>(a1.blocking[i]);
        ++tasks;
      }
    }
    std::cout << cell(static_cast<std::int64_t>(ng))
              << cell(without / static_cast<double>(tasks), 12, 0)
              << cell(with / static_cast<double>(tasks), 12, 0)
              << cell((with - without) / with, 12, 2) << "\n";
  }

  printHeader("acceptance cost of the penalty");
  std::cout << cell("util") << cell("with defer") << cell("w/o defer")
            << "\n";
  for (double util : {0.4, 0.5, 0.6, 0.7}) {
    WorkloadParams p;
    p.processors = 4;
    p.tasks_per_processor = 3;
    p.utilization_per_processor = util;
    p.global_resources = 2;
    p.cs_max = 15;
    int with = 0, without = 0;
    for (int s = 0; s < kSeeds; ++s) {
      Rng rng(8200 + static_cast<std::uint64_t>(s));
      const TaskSystem sys = generateWorkload(p, rng);
      with += analyzeUnder(ProtocolKind::kMpcp, sys).report.rta_all;
      without += analyzeUnder(ProtocolKind::kMpcp, sys,
                              {.include_deferred_execution = false})
                     .report.rta_all;
    }
    std::cout << cell(util, 12, 2)
              << cell(static_cast<double>(with) / kSeeds)
              << cell(static_cast<double>(without) / kSeeds) << "\n";
  }

  printHeader(
      "necessity: a suspension-oblivious analysis wrongly accepts");
  // The classic back-to-back anomaly. hi (P0, T=10, C=2) suspends for up
  // to 9 ticks on remote G: its job-1 execution is deferred to the end of
  // its period and lands immediately before job 2, so lo sees TWO hi
  // bursts inside one ceil(W/T)=1 window. A deferral-oblivious RTA
  // (jitter = 0, no penalty) accepts lo at D=7; the simulation misses.
  // Our analysis carries hi's suspension bound as release jitter and
  // (for Theorem 3) the C_j penalty, and correctly rejects.
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "hi", .period = 10, .processor = 0,
             .body = Body{}.compute(1).section(g, 1)});
  b.addTask({.name = "lo", .period = 20, .phase = 8,
             .relative_deadline = 7, .processor = 0,
             .body = Body{}.compute(5)});
  b.addTask({.name = "rem", .period = 40, .processor = 1,
             .body = Body{}.section(g, 9).compute(1)});
  const TaskSystem sys = std::move(b).build();

  // Deferral-oblivious: MPCP blocking without the penalty, zero jitter.
  const ProtocolAnalysis no_penalty = analyzeUnder(
      ProtocolKind::kMpcp, sys, {.include_deferred_execution = false});
  std::vector<Duration> b0;
  for (const BlockingBreakdown& bb : no_penalty.factors) {
    b0.push_back(bb.total());
  }
  const SchedulabilityReport oblivious = analyzeSchedulability(sys, b0);
  const ProtocolAnalysis full = analyzeUnder(ProtocolKind::kMpcp, sys);
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 80});

  const std::size_t lo_idx = 1;
  std::cout << "deferral-oblivious RTA on lo: "
            << (oblivious.tasks[lo_idx].rta_ok ? "ACCEPTS (R="
                                               : "rejects (R=")
            << oblivious.tasks[lo_idx].response_time << ", D=7)\n"
            << "full analysis (jitter + penalty) on lo: "
            << (full.report.tasks[lo_idx].rta_ok ? "accepts (R="
                                                 : "REJECTS (R=")
            << full.report.tasks[lo_idx].response_time << ")\n"
            << "simulation: "
            << (r.any_deadline_miss ? "deadline MISS observed" : "no miss")
            << "\n";
  const bool demonstrates = oblivious.tasks[lo_idx].rta_ok &&
                            !full.report.tasks[lo_idx].rta_ok &&
                            r.any_deadline_miss;
  std::cout << (demonstrates
                    ? "=> ignoring deferred execution is unsound, as the "
                      "paper warns; the jitter/penalty terms are required.\n"
                    : "=> scenario did not trigger; see EXPERIMENTS.md.\n");
  return demonstrates ? 0 : 1;
}
