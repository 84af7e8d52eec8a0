// E6 — Section 5.1: the five blocking factors, measured.
//
// For random workloads we report (a) the mean analytical contribution of
// each factor to B_i, swept over the knobs the factors depend on, and
// (b) the worst observed blocking in simulation next to the analytical
// bound — the bound must dominate, and the ratio indicates its
// pessimism.
#include <iostream>

#include "bench_util.h"
#include "core/hybrid_blocking.h"
#include "test_support.h"

using namespace mpcp;
using namespace mpcp::bench;
using enum mpcp::BlockingFactor;

namespace {

struct FactorMeans {
  double f1 = 0, f2 = 0, f3 = 0, f4 = 0, f5 = 0, deferred = 0, total = 0;
};

FactorMeans meanFactors(const WorkloadParams& params, int seeds,
                        std::uint64_t base) {
  FactorMeans m;
  std::int64_t tasks = 0;
  for (int s = 0; s < seeds; ++s) {
    Rng rng(base + static_cast<std::uint64_t>(s));
    const TaskSystem sys = generateWorkload(params, rng);
    const PriorityTables tables(sys);
    const MpcpBlockingAnalysis analysis(sys, tables);
    for (const BlockingBreakdown& b : analysis.all()) {
      m.f1 += static_cast<double>(b[kLocalLowerCs]);
      m.f2 += static_cast<double>(b[kLowerGcsQueue]);
      m.f3 += static_cast<double>(b[kHigherGcsRemote]);
      m.f4 += static_cast<double>(b[kBlockingProcGcs]);
      m.f5 += static_cast<double>(b[kLocalLowerGcs]);
      m.deferred += static_cast<double>(b[kDeferredExecution]);
      m.total += static_cast<double>(b.total());
      ++tasks;
    }
  }
  const double n = static_cast<double>(tasks);
  m.f1 /= n; m.f2 /= n; m.f3 /= n; m.f4 /= n; m.f5 /= n;
  m.deferred /= n; m.total /= n;
  return m;
}

void printRow(const std::string& label, const FactorMeans& m) {
  std::cout << cell(label) << cell(m.f1, 9, 1) << cell(m.f2, 9, 1)
            << cell(m.f3, 9, 1) << cell(m.f4, 9, 1) << cell(m.f5, 9, 1)
            << cell(m.deferred, 9, 1) << cell(m.total, 9, 1) << "\n";
}

WorkloadParams baseParams() {
  WorkloadParams p;
  p.processors = 4;
  p.tasks_per_processor = 3;
  p.utilization_per_processor = 0.4;
  p.global_resources = 2;
  p.max_gcs_per_task = 2;
  p.cs_max = 20;
  return p;
}

void header(const char* knob) {
  std::cout << cell(knob) << cell("F1", 9) << cell("F2", 9) << cell("F3", 9)
            << cell("F4", 9) << cell("F5", 9) << cell("defer", 9)
            << cell("B_i", 9) << "\n";
}

}  // namespace

int main() {
  constexpr int kSeeds = 30;

  printHeader("mean per-task blocking factors vs processor count");
  header("processors");
  for (int procs : {2, 4, 8, 16}) {
    WorkloadParams p = baseParams();
    p.processors = procs;
    printRow(std::to_string(procs), meanFactors(p, kSeeds, 10));
  }

  printHeader("mean per-task blocking factors vs critical-section length");
  header("cs_max");
  for (Duration cs : {5, 10, 20, 40, 80}) {
    WorkloadParams p = baseParams();
    p.cs_max = cs;
    printRow(std::to_string(cs), meanFactors(p, kSeeds, 20));
  }

  printHeader("mean per-task blocking factors vs gcs count per task (NG)");
  header("max NG");
  for (int ng : {1, 2, 4, 8}) {
    WorkloadParams p = baseParams();
    p.max_gcs_per_task = ng;
    p.global_sharing_prob = 1.0;
    printRow(std::to_string(ng), meanFactors(p, kSeeds, 30));
  }

  printHeader("mean per-task blocking factors vs global resource count");
  header("resources");
  for (int res : {1, 2, 4, 8}) {
    WorkloadParams p = baseParams();
    p.global_resources = res;
    printRow(std::to_string(res), meanFactors(p, kSeeds, 40));
  }

  // ---- factor-5 reading ablation (DESIGN.md reconstruction note) -------
  printHeader(
      "factor-5 'min' (sound-tight) vs the OCR's literal 'max' reading");
  std::cout << cell("max NG") << cell("F5 min") << cell("F5 max")
            << cell("B min") << cell("B max") << "\n";
  for (int ng : {1, 2, 4}) {
    WorkloadParams p = baseParams();
    p.max_gcs_per_task = ng;
    p.global_sharing_prob = 1.0;
    double f5_min = 0, f5_max = 0, b_min = 0, b_max = 0;
    std::int64_t tasks = 0;
    for (int sd = 0; sd < kSeeds; ++sd) {
      Rng rng(60 + static_cast<std::uint64_t>(sd));
      const TaskSystem sys = generateWorkload(p, rng);
      const PriorityTables tables(sys);
      const MpcpBlockingAnalysis tight(sys, tables,
                                       {.paper_literal_factor5 = false});
      const MpcpBlockingAnalysis literal(sys, tables,
                                         {.paper_literal_factor5 = true});
      for (const Task& t : sys.tasks()) {
        f5_min += static_cast<double>(tight.blocking(t.id)[kLocalLowerGcs]);
        f5_max +=
            static_cast<double>(literal.blocking(t.id)[kLocalLowerGcs]);
        b_min += static_cast<double>(tight.blocking(t.id).total());
        b_max += static_cast<double>(literal.blocking(t.id).total());
        ++tasks;
      }
    }
    const double n = static_cast<double>(tasks);
    std::cout << cell(static_cast<std::int64_t>(ng)) << cell(f5_min / n, 12, 1)
              << cell(f5_max / n, 12, 1) << cell(b_min / n, 12, 1)
              << cell(b_max / n, 12, 1) << "\n";
  }
  std::cout << "(both readings are valid upper bounds; the literal 'max'\n"
               "is uniformly looser — see DESIGN.md on the OCR ambiguity)\n";

  // ---- bound vs observation --------------------------------------------
  printHeader("analytical bound vs worst observed blocking (miss-free runs)");
  std::cout << cell("seed") << cell("max observed") << cell("max bound")
            << cell("bound held") << "\n";
  int sound = 0, runs = 0;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    const WorkloadParams p = baseParams();
    const TaskSystem sys = generateWorkload(p, rng);
    const PriorityTables tables(sys);
    const MpcpBlockingAnalysis analysis(sys, tables);
    const SimResult r = simulate(ProtocolKind::kMpcp, sys,
                                 {.horizon_cap = 200'000});
    if (r.any_deadline_miss) continue;
    Duration worst_obs = 0, worst_bound = 0;
    bool held = true;
    for (const Task& t : sys.tasks()) {
      const Duration obs = maxBlockedOfTask(r, t.id);
      const Duration bound = analysis.blocking(t.id).total();
      worst_obs = std::max(worst_obs, obs);
      worst_bound = std::max(worst_bound, bound);
      held &= obs <= bound;
    }
    ++runs;
    sound += held ? 1 : 0;
    if (seed < 108) {  // print a sample of rows
      std::cout << cell(static_cast<std::int64_t>(seed)) << cell(worst_obs)
                << cell(worst_bound) << cell(held ? "yes" : "NO") << "\n";
    }
  }
  std::cout << "bound held in " << sound << "/" << runs
            << " miss-free runs (must be all)\n";
  return sound == runs ? 0 : 1;
}
