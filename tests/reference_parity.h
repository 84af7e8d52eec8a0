// Engine ≡ reference parity assertion, shared by the tests that link
// mpcp_reference (kept out of test_util.h so the rest of the suite does
// not have to link the tick-stepped oracle).
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "core/simulate.h"
#include "model/task_system.h"
#include "sim/reference.h"
#include "sim/result.h"

namespace mpcp::testing {

/// The engine run and the reference run agree on every job's finish
/// time, on the deadline-miss flag, on each resource's acquisition,
/// contended-wait and handoff counters, and on the agent migrations.
inline void expectSameAsReference(const TaskSystem& sys,
                                  const SimResult& engine,
                                  const ReferenceResult& reference,
                                  const std::string& label) {
  std::map<std::pair<std::int32_t, std::int64_t>, Time> engine_finish;
  for (const JobRecord& jr : engine.jobs) {
    engine_finish[{jr.id.task.value(), jr.id.instance}] = jr.finish;
  }
  ASSERT_EQ(engine.jobs.size(), reference.jobs.size()) << label;
  for (const ReferenceJobResult& rj : reference.jobs) {
    const auto it = engine_finish.find({rj.id.task.value(), rj.id.instance});
    ASSERT_NE(it, engine_finish.end()) << label << " missing " << rj.id;
    EXPECT_EQ(it->second, rj.finish)
        << label << ": " << sys.task(rj.id.task).name << "#" << rj.id.instance
        << " engine=" << it->second << " reference=" << rj.finish;
  }
  EXPECT_EQ(engine.any_deadline_miss, reference.any_deadline_miss) << label;
  EXPECT_EQ(engine.counters.migrations, reference.counters.migrations)
      << label;
  for (const ResourceInfo& r : sys.resources()) {
    const obs::ResourceCounters& e = engine.counters.res(r.id);
    const obs::ResourceCounters& f = reference.counters.res(r.id);
    EXPECT_EQ(e.acquisitions, f.acquisitions) << label << ": " << r.name;
    EXPECT_EQ(e.contended_waits, f.contended_waits) << label << ": " << r.name;
    EXPECT_EQ(e.handoffs, f.handoffs) << label << ": " << r.name;
  }
}

/// Runs `kind` on the engine and on the reference for `horizon` ticks and
/// expects the two to agree (see above).
inline void expectMatchesReference(ProtocolKind kind, const TaskSystem& sys,
                                   Time horizon, const std::string& label) {
  expectSameAsReference(sys, simulate(kind, sys, {.horizon = horizon}),
                        simulateReference(kind, sys, horizon), label);
}

}  // namespace mpcp::testing
