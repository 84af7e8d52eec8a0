// Rendering and misc plumbing: report tables, Gantt options, protocol
// factory, engine accounting fields.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/report.h"
#include "core/analyzer.h"
#include "core/protocol_registry.h"
#include "core/simulate.h"
#include "model/task_system.h"
#include "taskgen/paper_examples.h"
#include "trace/gantt.h"

namespace mpcp {
namespace {

TEST(Report, CeilingTableShowsBandsSymbolically) {
  const paper::Example3 ex = paper::makeExample3();
  const PriorityTables tables(ex.sys);
  const std::string table = renderCeilingTable(ex.sys, tables);
  EXPECT_NE(table.find("S4"), std::string::npos);
  EXPECT_NE(table.find("P_G+7"), std::string::npos);  // ceiling(S4)
  EXPECT_NE(table.find("local"), std::string::npos);
  EXPECT_NE(table.find("global"), std::string::npos);
  EXPECT_NE(table.find("tau1,tau3,tau5"), std::string::npos);  // users
}

TEST(Report, GcsPriorityTableListsEachTaskResourcePairOnce) {
  const paper::Example3 ex = paper::makeExample3();
  const PriorityTables tables(ex.sys);
  const std::string table = renderGcsPriorityTable(ex.sys, tables);
  // tau1 uses S4 once; tau2 uses S5 once -> exactly 6 data rows.
  int rows = 0;
  std::istringstream is(table);
  std::string line;
  while (std::getline(is, line)) {
    rows += line.rfind("tau", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(rows, 6);
}

TEST(Report, ScheduleReportContainsVerdicts) {
  TaskSystemBuilder b(1);
  b.addTask({.name = "easy", .period = 100, .processor = 0,
             .body = Body{}.compute(10)});
  const TaskSystem sys = std::move(b).build();
  const ProtocolAnalysis a = analyzeUnder(ProtocolKind::kMpcp, sys);
  const std::string report = renderScheduleReport(sys, a.report);
  EXPECT_NE(report.find("easy"), std::string::npos);
  EXPECT_NE(report.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(report.find("LL-bound"), std::string::npos);
}

TEST(Factory, AllKindsConstructible) {
  const paper::Example3 ex = paper::makeExample3();
  const PriorityTables tables(ex.sys);
  for (const ProtocolKind kind :
       {ProtocolKind::kNone, ProtocolKind::kNonePrio, ProtocolKind::kPip,
        ProtocolKind::kMpcp, ProtocolKind::kDpcp}) {
    const auto protocol = makeProtocol(kind, ex.sys, tables);
    ASSERT_NE(protocol, nullptr) << toString(kind);
    EXPECT_NE(std::string(protocol->name()), "");
  }
  // kPcp must refuse the multiprocessor system.
  EXPECT_THROW(makeProtocol(ProtocolKind::kPcp, ex.sys, tables),
               ConfigError);
}

TEST(Gantt, WindowingAndGrouping) {
  const paper::Example3 ex = paper::makeExample3();
  const SimResult r = simulate(ProtocolKind::kMpcp, ex.sys, {.horizon = 100});
  const std::string windowed =
      renderGantt(ex.sys, r, {.begin = 10, .end = 20});
  // Ruler starts at the window, not at zero.
  EXPECT_NE(windowed.find("10"), std::string::npos);
  const std::string flat = renderGantt(
      ex.sys, r, {.end = 20, .group_by_processor = false});
  EXPECT_EQ(flat.find("--- P0 ---"), std::string::npos);
  const std::string grouped = renderGantt(ex.sys, r, {.end = 20});
  EXPECT_NE(grouped.find("--- P2 ---"), std::string::npos);
}

TEST(Engine, ProcessorBusyConservation) {
  const paper::Example3 ex = paper::makeExample3();
  const SimResult r = simulate(ProtocolKind::kMpcp, ex.sys, {.horizon = 500});
  Duration busy_total = 0;
  for (Duration b : r.processor_busy) busy_total += b;
  Duration executed_total = 0;
  for (const JobRecord& jr : r.jobs) executed_total += jr.executed;
  EXPECT_EQ(busy_total, executed_total);
  EXPECT_EQ(r.processor_busy.size(), 3u);
}

TEST(Engine, ResponsePlusWaitDecomposition) {
  // For every finished job: response = executed + blocked + preempted +
  // suspended (the attribution is exhaustive and disjoint).
  const paper::Example3 ex = paper::makeExample3();
  const SimResult r = simulate(ProtocolKind::kMpcp, ex.sys,
                               {.horizon = 2'000});
  for (const JobRecord& jr : r.jobs) {
    if (jr.finish < 0) continue;
    EXPECT_EQ(jr.responseTime(),
              jr.executed + jr.blocked + jr.preempted + jr.suspended)
        << jr.id;
  }
}

TEST(Analyzer, PaperLiteralOptionFlowsThrough) {
  const paper::Example3 ex = paper::makeExample3();
  const BlockingOptions literal{.paper_literal_factor5 = true};
  const ProtocolAnalysis a = analyzeUnder(ProtocolKind::kMpcp, ex.sys);
  const ProtocolAnalysis b =
      analyzeUnder(ProtocolKind::kMpcp, ex.sys, literal);
  for (std::size_t i = 0; i < a.blocking.size(); ++i) {
    EXPECT_LE(a.blocking[i], b.blocking[i]);
  }
}

TEST(Analyzer, NoDeferredReachesEveryProtocol) {
  // hi suspends on P0, so lo (lower priority, same processor) pays the
  // deferred-execution penalty under every analysis; switching the
  // penalty off must lower lo's bound under every one of them.
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "hi", .period = 100, .processor = 0,
             .body = Body{}.compute(5).suspend(10).section(g, 2).compute(3)});
  const TaskId lo =
      b.addTask({.name = "lo", .period = 400, .processor = 0,
                 .body = Body{}.compute(20).section(g, 4).compute(10)});
  b.addTask({.name = "other", .period = 200, .processor = 1,
             .body = Body{}.compute(10).section(g, 3).compute(5)});
  const TaskSystem sys = std::move(b).build();
  const auto i = static_cast<std::size_t>(lo.value());
  int analyzed = 0;
  for (const ProtocolSpec& spec : protocolRegistry()) {
    // PCP is a uniprocessor protocol and rejects the global G.
    if (!spec.analyzable || spec.kind == ProtocolKind::kPcp) continue;
    const ProtocolAnalysis with = analyzeUnder(spec.kind, sys);
    const ProtocolAnalysis without =
        analyzeUnder(spec.kind, sys, {.include_deferred_execution = false});
    EXPECT_LT(without.blocking[i], with.blocking[i]) << spec.name;
    ++analyzed;
  }
  EXPECT_EQ(analyzed, 5);  // mpcp, dpcp, hybrid, spin-fifo, spin-prio
}

}  // namespace
}  // namespace mpcp
