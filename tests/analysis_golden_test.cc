// Golden pin of every blocking analysis: hashes each per-task breakdown
// field and the resulting SchedulabilityReport (blocking, response time,
// ll_ok, rta_ok) plus the RTA jitter, for pcp, mpcp, dpcp, hybrid,
// spin-fifo and spin-prio, under every combination of
// paper_literal_factor5 and include_deferred_execution, over a seeded
// corpus. Any change to a bound, however small, changes a hash; a
// refactor of the analysis code must leave all of them untouched.
//
// An analysis that rejects a system (PCP on a system with globals) hashes
// its error text instead, so the rejection is pinned too.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "analysis/blocking_pcp.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "taskgen/generator.h"

namespace mpcp {
namespace {

/// FNV-1a over explicit little-endian int64 words: stable across
/// platforms and standard libraries.
class Fnv {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(static_cast<std::int64_t>(s.size()));
    for (const char c : s) add(static_cast<std::int64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TaskSystem generated(int procs, int per_proc, double sharing,
                     std::uint64_t seed,
                     const std::function<void(WorkloadParams&)>& tweak = {}) {
  WorkloadParams p;
  p.processors = procs;
  p.tasks_per_processor = per_proc;
  p.global_sharing_prob = sharing;
  if (tweak) tweak(p);
  Rng rng(seed);
  return generateWorkload(p, rng);
}

/// Nested local sections, sync pins and voluntary suspensions by hand.
TaskSystem nestedLocalSystem() {
  TaskSystemBuilder b(3);
  const ResourceId g1 = b.addResource("G1");
  const ResourceId g2 = b.addResource("G2");
  const ResourceId la = b.addResource("LA");
  const ResourceId lb = b.addResource("LB");
  const ResourceId lc = b.addResource("LC");
  b.addTask({.name = "a", .period = 50, .processor = 0,
             .body = Body{}.compute(2).section(g1, 3).compute(1)});
  b.addTask({.name = "b", .period = 80, .processor = 0,
             .body = Body{}
                         .compute(1)
                         .lock(la)
                         .compute(2)
                         .section(lb, 3)
                         .compute(1)
                         .unlock(la)
                         .suspend(4)
                         .section(g2, 2)
                         .compute(1)});
  b.addTask({.name = "c", .period = 200, .processor = 0,
             .body = Body{}.compute(3).lock(lb).compute(1).section(la, 5)
                         .unlock(lb).section(g1, 4).compute(2)});
  b.addTask({.name = "d", .period = 60, .processor = 1,
             .body = Body{}.compute(1).section(g1, 2).suspend(3)
                         .section(g2, 6).compute(1)});
  b.addTask({.name = "e", .period = 150, .processor = 1,
             .body = Body{}.compute(4).section(lc, 7).section(g2, 3)
                         .compute(2)});
  b.addTask({.name = "f", .period = 120, .processor = 1,
             .body = Body{}.compute(2).section(lc, 2).compute(1)});
  b.addTask({.name = "g", .period = 90, .processor = 2,
             .body = Body{}.compute(5).section(g1, 1).section(g2, 1)});
  b.assignSyncProcessor(g1, ProcessorId(2));
  b.assignSyncProcessor(g2, ProcessorId(0));
  return std::move(b).build();
}

/// Explicit, non-rate-monotonic priorities.
TaskSystem explicitPrioritySystem() {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  const ResourceId h = b.addResource("H");
  const ResourceId l = b.addResource("L");
  const auto task = [&](const char* name, Duration period, int proc, int prio,
                        Body body) {
    b.addTask({.name = name, .period = period, .processor = proc,
               .body = std::move(body), .priority = Priority(prio)});
  };
  task("p", 100, 0, 3, Body{}.compute(5).section(g, 4).compute(2));
  task("q", 40, 0, 9, Body{}.compute(2).section(l, 3).section(h, 2));
  task("r", 70, 0, 1, Body{}.compute(3).section(l, 6).suspend(2)
                          .section(g, 3));
  task("s", 90, 1, 7, Body{}.compute(4).section(h, 5).section(g, 2));
  task("t", 30, 1, 2, Body{}.compute(1).section(g, 1).compute(1));
  task("u", 200, 1, 5, Body{}.compute(9).section(h, 8));
  return std::move(b).build();
}

/// The seeded corpus the hashes are taken over.
std::vector<TaskSystem> corpus() {
  std::vector<TaskSystem> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {  // 8x8, default sharing
    out.push_back(generated(8, 8, 0.6, 1000 + seed));
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {  // 16x32, sharing 0.2
    out.push_back(generated(16, 32, 0.2, 2000 + seed));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {  // voluntary suspensions
    out.push_back(generated(4, 5, 0.7, 3000 + seed, [](WorkloadParams& p) {
      p.suspension_prob = 0.6;
      p.local_resources_per_processor = 2;
      p.max_lcs_per_task = 2;
    }));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {  // allow_nested_global
    out.push_back(generated(3, 5, 0.9, 4000 + seed, [](WorkloadParams& p) {
      p.nested_global_prob = 0.7;
      p.max_gcs_per_task = 3;
    }));
  }
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {  // local-only: real PCP
    out.push_back(generated(1, 6, 0.0, 5000 + seed, [](WorkloadParams& p) {
      p.local_resources_per_processor = 3;
      p.max_lcs_per_task = 3;
    }));
  }
  out.push_back(nestedLocalSystem());
  out.push_back(explicitPrioritySystem());
  return out;
}

void addReport(Fnv& h, const ProtocolAnalysis& a) {
  h.add(static_cast<std::int64_t>(a.report.tasks.size()));
  for (std::size_t i = 0; i < a.report.tasks.size(); ++i) {
    const TaskVerdict& v = a.report.tasks[i];
    h.add(v.task.value());
    h.add(v.blocking);
    h.add(v.response_time);
    h.add(v.ll_ok ? 1 : 0);
    h.add(v.rta_ok ? 1 : 0);
    h.add(a.jitter[i]);
  }
  h.add(a.report.ll_all ? 1 : 0);
  h.add(a.report.rta_all ? 1 : 0);
}

/// Hashes `breakdown_fields` (the protocol's per-task factors) and the
/// analyzeUnder report, or the ConfigError text if either rejects the
/// system. Any other exception fails the test.
void addCase(Fnv& h, ProtocolKind kind, const TaskSystem& sys,
             const BlockingOptions& options,
             const std::function<void(Fnv&)>& breakdown_fields) {
  try {
    breakdown_fields(h);
    addReport(h, analyzeUnder(kind, sys, options));
  } catch (const ConfigError& e) {
    h.add(std::string("error: ") + e.what());
  }
}

/// Hashes the listed factors of every task, in TaskId order. A factor
/// group is hashed as its sum (dpcp's D3 is F3' + D3').
void addFactors(
    Fnv& h, const std::vector<BlockingBreakdown>& all,
    std::initializer_list<std::initializer_list<BlockingFactor>> fields) {
  for (const BlockingBreakdown& b : all) {
    for (const auto& group : fields) {
      Duration sum = 0;
      for (const BlockingFactor f : group) sum += b[f];
      h.add(sum);
    }
  }
}

struct Hashes {
  std::uint64_t pcp, mpcp, dpcp, hybrid, spin_fifo, spin_prio;
};

Hashes hashCorpus() {
  using enum BlockingFactor;
  Fnv pcp, mpcp, dpcp, hybrid, spin_fifo, spin_prio;
  for (const TaskSystem& sys : corpus()) {
    const PriorityTables tables(sys);
    for (const bool literal_f5 : {false, true}) {
      for (const bool deferred : {false, true}) {
        const BlockingOptions o{.paper_literal_factor5 = literal_f5,
                                .include_deferred_execution = deferred};

        addCase(pcp, ProtocolKind::kPcp, sys, o, [&](Fnv& h) {
          addFactors(h, pcpBlocking(sys, tables), {{kLocalLowerCs}});
        });
        addCase(mpcp, ProtocolKind::kMpcp, sys, o, [&](Fnv& h) {
          addFactors(h, MpcpBlockingAnalysis(sys, tables, o).all(),
                     {{kLocalLowerCs},
                      {kLowerGcsQueue},
                      {kHigherGcsRemote},
                      {kBlockingProcGcs},
                      {kLocalLowerGcs},
                      {kDeferredExecution}});
        });
        addCase(dpcp, ProtocolKind::kDpcp, sys, o, [&](Fnv& h) {
          addFactors(h, dpcpBlocking(sys, tables, o),
                     {{kLocalLowerCs},
                      {kLowerGcsQueue},
                      {kHigherGcsRemote, kAgentInterference},
                      {kHostAgentLoad},
                      {kDeferredExecution}});
        });
        addCase(hybrid, ProtocolKind::kHybrid, sys, o, [&](Fnv& h) {
          addFactors(h, hybridBlocking(sys, tables, defaultHybridPolicy(sys),
                                       o),
                     {{kLocalLowerCs},
                      {kLowerGcsQueue},
                      {kHigherGcsRemote},
                      {kBlockingProcGcs},
                      {kLocalLowerGcs},
                      {kAgentInterference},
                      {kHostAgentLoad},
                      {kDeferredExecution}});
        });
        for (const bool prio : {false, true}) {
          addCase(prio ? spin_prio : spin_fifo,
                  prio ? ProtocolKind::kSpinPrio : ProtocolKind::kSpinFifo,
                  sys, o, [&](Fnv& h) {
                    const auto all = spinBlocking(sys, prio, o);
                    addFactors(h, all,
                               {{kSpinWait},
                                {kArrivalBlocking},
                                {kDeferredExecution}});
                    for (const Duration f : spinInflation(all)) h.add(f);
                  });
        }
      }
    }
  }
  return {pcp.value(),    mpcp.value(),      dpcp.value(),
          hybrid.value(), spin_fifo.value(), spin_prio.value()};
}

TEST(AnalysisGolden, EveryBreakdownAndVerdictMatchesThePin) {
  const Hashes h = hashCorpus();
  EXPECT_EQ(h.pcp, 0xde0905bb9a0a574dull) << std::hex << h.pcp;
  EXPECT_EQ(h.mpcp, 0x17a7d74f6e0d27fdull) << std::hex << h.mpcp;
  EXPECT_EQ(h.dpcp, 0x7a3dfea941709d55ull) << std::hex << h.dpcp;
  EXPECT_EQ(h.hybrid, 0xb170cbcff4daeef3ull) << std::hex << h.hybrid;
  EXPECT_EQ(h.spin_fifo, 0x5a53cc9f0074b2adull) << std::hex << h.spin_fifo;
  EXPECT_EQ(h.spin_prio, 0x0ec30b5aca47f7a9ull) << std::hex << h.spin_prio;
}

TEST(AnalysisGolden, CorpusExercisesEveryAnalysisPath) {
  // Guards the corpus itself: each feature the pin is meant to cover must
  // actually occur, or the hash would silently stop covering it.
  bool nested_local = false, nested_global = false, suspends = false,
       local_only = false;
  for (const TaskSystem& sys : corpus()) {
    local_only |= !sys.hasGlobalResources();
    nested_global |= sys.options().allow_nested_global;
    for (const Task& t : sys.tasks()) {
      for (const CriticalSection& cs : t.sections) {
        if (cs.parent >= 0 && !sys.isGlobal(cs.resource)) nested_local = true;
      }
      for (const Op& op : t.body.ops()) {
        suspends |= std::holds_alternative<SuspendOp>(op);
      }
    }
  }
  EXPECT_TRUE(nested_local);
  EXPECT_TRUE(nested_global);
  EXPECT_TRUE(suspends);
  EXPECT_TRUE(local_only);
}

}  // namespace
}  // namespace mpcp
