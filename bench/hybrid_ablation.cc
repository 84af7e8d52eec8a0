// E12 — the conclusion's variation: "the shared memory and message-based
// protocols can be mixed to reduce critical blocking factors and/or
// support nested critical sections."
//
// Scenario built to expose the trade. Each application processor hosts
//   * a *tight* high-priority task (short period, shares a cold resource
//     with the next processor's tight task — ring topology), and
//   * a *heavy* low-priority task with one long section on the hot
//     resource every heavy task shares.
// Policies:
//   pure-shared  — MPCP everywhere: each heavy's hot gcs elevates ON ITS
//                  HOST, preempting the tight task there (factor F5);
//   pure-message — DPCP everywhere: the hot gcs's leave, but the cold
//                  ring (pinned to processor 0's sync duty) funnels every
//                  tight task's section through P0 (D3'/D4' terms);
//   hybrid       — hot message-based on a dedicated spare processor,
//                  cold shared-memory: both pressures removed.
//
// Exits 1 unless the hybrid accepts at least as many seeds as the better
// pure policy on every row, and, at hot cs = 1000, gives the tight tasks
// a lower mean B than both pure policies.
#include <algorithm>
#include <array>
#include <iostream>

#include "bench_util.h"
#include "common/strf.h"

using namespace mpcp;
using namespace mpcp::bench;

namespace {

struct Scenario {
  TaskSystem sys;
  ResourceId hot;
};

Scenario makeScenario(int procs, Duration hot_cs, Rng& rng) {
  constexpr Duration kColdCs = 100;
  TaskSystemBuilder b(procs + 1);  // + dedicated spare
  const ResourceId hot = b.addResource("HOT");
  std::vector<ResourceId> cold;
  for (int c = 0; c < procs; ++c) {
    const ResourceId r = b.addResource(strf("COLD", c));
    // All cold resources funnel through P0 when message-based.
    b.assignSyncProcessor(r, ProcessorId(0));
    cold.push_back(r);
  }
  b.assignSyncProcessor(hot, ProcessorId(procs));

  for (int p = 0; p < procs; ++p) {
    // Tight task: shares cold[p] with processor (p+1) % procs' tight task.
    {
      const Duration period = rng.uniformInt(1500, 4000);
      const Duration wcet = std::max<Duration>(kColdCs + 20, period * 3 / 10);
      Body body;
      body.compute(wcet - kColdCs - 10);
      body.section(cold[static_cast<std::size_t>(p)], kColdCs);
      body.compute(5);
      body.section(cold[static_cast<std::size_t>((p + 1) % procs)], 5);
      TaskSpec spec;
      spec.name = strf("tight", p);
      spec.period = period;
      spec.processor = p;
      spec.body = std::move(body);
      b.addTask(std::move(spec));
    }
    // Heavy task: long hot section.
    {
      const Duration period = rng.uniformInt(15000, 40000);
      const Duration wcet = std::max<Duration>(hot_cs + 20, period * 3 / 10);
      Body body;
      body.compute(wcet - hot_cs - 5);
      body.section(hot, hot_cs);
      body.compute(5);
      TaskSpec spec;
      spec.name = strf("heavy", p);
      spec.period = period;
      spec.processor = p;
      spec.body = std::move(body);
      b.addTask(std::move(spec));
    }
  }
  return Scenario{std::move(b).build(), hot};
}

}  // namespace

int main() {
  constexpr int kSeeds = 30;
  constexpr int kProcs = 4;
  constexpr Duration kDecomposedHotCs = 1000;
  constexpr std::array<const char*, 3> kPolicies = {"pure-shared",
                                                    "pure-msg", "hybrid"};

  // The tight tasks' factor sums at kDecomposedHotCs, per policy.
  struct TightSums {
    double b = 0, f5 = 0, agents = 0;
  };
  std::array<TightSums, 3> tight{};
  std::int64_t tights = 0;
  bool ok = true;

  printHeader(
      "hybrid policy: hot resource message-based, cold shared (RTA "
      "acceptance)");
  std::cout << cell("hot cs");
  for (const char* name : kPolicies) std::cout << cell(name);
  std::cout << "\n";
  for (Duration hot_cs : {100, 300, 600, 1000, 1500}) {
    std::array<int, 3> accepted{};
    for (int s = 0; s < kSeeds; ++s) {
      Rng rng(11000 + static_cast<std::uint64_t>(s));
      const Scenario sc = makeScenario(kProcs, hot_cs, rng);
      HybridPolicy mix = HybridPolicy::allShared(sc.sys);
      mix.set(sc.hot, GlobalPolicy::kMessageBased);
      const std::array<HybridPolicy, 3> policies = {
          HybridPolicy::allShared(sc.sys), HybridPolicy::allMessage(sc.sys),
          mix};
      for (std::size_t p = 0; p < policies.size(); ++p) {
        const ProtocolAnalysis a = analyzeHybrid(sc.sys, policies[p]);
        accepted[p] += a.report.rta_all;
        if (hot_cs != kDecomposedHotCs) continue;
        for (const Task& t : sc.sys.tasks()) {
          if (t.name.rfind("tight", 0) != 0) continue;
          using enum BlockingFactor;
          const BlockingBreakdown& f =
              a.factors[static_cast<std::size_t>(t.id.value())];
          tight[p].b += static_cast<double>(f.total());
          tight[p].f5 += static_cast<double>(f[kLocalLowerGcs]);
          tight[p].agents +=
              static_cast<double>(f[kAgentInterference] + f[kHostAgentLoad]);
          tights += p == 0 ? 1 : 0;
        }
      }
    }
    std::cout << cell(static_cast<std::int64_t>(hot_cs));
    for (const int n : accepted) {
      std::cout << cell(static_cast<double>(n) / kSeeds);
    }
    std::cout << "\n";
    if (accepted[2] < std::max(accepted[0], accepted[1])) {
      std::cout << "CHECK FAILED: hybrid accepts fewer seeds than a pure "
                   "policy at hot cs "
                << hot_cs << "\n";
      ok = false;
    }
  }

  printHeader(strf("tight tasks' mean blocking decomposition (hot cs = ",
                   kDecomposedHotCs, ")"));
  const double n = static_cast<double>(tights);
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    std::cout << "  " << cell(strf(kPolicies[p], ':'), 13)
              << "B = " << tight[p].b / n << " (F5' share " << tight[p].f5 / n
              << ", agent D3'+D4' share " << tight[p].agents / n << ")\n";
  }
  if (!(tight[2].b < tight[0].b && tight[2].b < tight[1].b)) {
    std::cout << "CHECK FAILED: the hybrid's mean B is not below both pure "
                 "policies'\n";
    ok = false;
  }

  std::cout << "\nexpected shape: pure-shared collapses as the hot section\n"
               "grows (F5 elevates it on every application processor);\n"
               "pure-message carries a constant cold-funnelling penalty;\n"
               "the hybrid tracks the best of both — the mixing benefit\n"
               "the paper's conclusion anticipates.\n";
  return ok ? 0 : 1;
}
