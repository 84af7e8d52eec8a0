#include "analysis/schedulability.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace mpcp {

double liuLaylandBound(int n) {
  MPCP_CHECK(n >= 1, "liuLaylandBound: n must be >= 1");
  return n * (std::pow(2.0, 1.0 / n) - 1.0);
}

namespace {

/// RTA fixpoint for one task given its local higher-priority interferers
/// `hp`. Returns the response time, or D_i + 1 if the iteration diverges
/// past the deadline (unschedulable sentinel).
Duration responseTime(const Task& ti, Duration bi,
                      std::span<const Task* const> hp,
                      std::span<const Duration> jitter,
                      std::span<const Duration> inflation) {
  const Duration limit = ti.relative_deadline;
  Duration r = ti.wcet + bi;
  while (true) {
    Duration next = ti.wcet + bi;
    for (const Task* tj : hp) {
      const Duration jj =
          jitter.empty() ? 0
                         : jitter[static_cast<std::size_t>(tj->id.value())];
      const Duration fj =
          inflation.empty()
              ? 0
              : inflation[static_cast<std::size_t>(tj->id.value())];
      next += ceilDiv(r + jj, tj->period) * (tj->wcet + fj);
    }
    if (next == r) return r;
    if (next > limit) return limit + 1;  // diverged: miss certified
    r = next;
  }
}

}  // namespace

SchedulabilityReport analyzeSchedulability(const TaskSystem& system,
                                           std::span<const Duration> blocking,
                                           std::span<const Duration> jitter,
                                           std::span<const Duration> inflation) {
  MPCP_CHECK(blocking.size() == system.tasks().size(),
             "blocking span must cover every task");
  MPCP_CHECK(jitter.empty() || jitter.size() == system.tasks().size(),
             "jitter span must be empty or cover every task");
  MPCP_CHECK(inflation.empty() || inflation.size() == system.tasks().size(),
             "inflation span must be empty or cover every task");

  SchedulabilityReport report;
  report.tasks.resize(system.tasks().size());
  report.ll_all = true;
  report.rta_all = true;

  std::vector<const Task*> hp;  // local tasks above the current one
  for (int p = 0; p < system.processorCount(); ++p) {
    const auto& local = system.tasksOn(ProcessorId(p));  // priority desc
    hp.clear();
    double hp_util = 0.0;
    // Inflation of strictly higher-priority local tasks, as utilization:
    // their spin occupancy steals the processor like extra computation,
    // but a task's own inflation is already inside its B_i.
    double hp_infl = 0.0;
    for (std::size_t rank = 0; rank < local.size(); ++rank) {
      const Task& ti = system.task(local[rank]);
      const Duration bi = blocking[static_cast<std::size_t>(ti.id.value())];
      TaskVerdict& v =
          report.tasks[static_cast<std::size_t>(ti.id.value())];
      v.task = ti.id;
      v.blocking = bi;

      hp_util += ti.utilization();
      v.utilization_lhs =
          hp_util + hp_infl +
          static_cast<double>(bi) / static_cast<double>(ti.period);
      v.utilization_bound = liuLaylandBound(static_cast<int>(rank) + 1);
      v.ll_ok = v.utilization_lhs <= v.utilization_bound + 1e-12;

      v.response_time = responseTime(ti, bi, hp, jitter, inflation);
      v.rta_ok = v.response_time <= ti.relative_deadline;

      report.ll_all &= v.ll_ok;
      report.rta_all &= v.rta_ok;

      if (!inflation.empty()) {
        hp_infl +=
            static_cast<double>(
                inflation[static_cast<std::size_t>(ti.id.value())]) /
            static_cast<double>(ti.period);
      }
      hp.push_back(&ti);
    }
  }
  return report;
}

std::vector<bool> hyperbolicTest(const TaskSystem& system,
                                 std::span<const Duration> blocking) {
  MPCP_CHECK(blocking.size() == system.tasks().size(),
             "blocking span must cover every task");
  std::vector<bool> ok(system.tasks().size(), false);
  for (int p = 0; p < system.processorCount(); ++p) {
    double product = 1.0;  // prod over higher-priority local tasks
    for (TaskId tid : system.tasksOn(ProcessorId(p))) {  // priority desc
      const Task& ti = system.task(tid);
      const double self =
          ti.utilization() +
          static_cast<double>(blocking[static_cast<std::size_t>(
              ti.id.value())]) /
              static_cast<double>(ti.period);
      ok[static_cast<std::size_t>(ti.id.value())] =
          product * (self + 1.0) <= 2.0 + 1e-12;
      product *= ti.utilization() + 1.0;
    }
  }
  return ok;
}

bool hyperbolicAll(const TaskSystem& system,
                   std::span<const Duration> blocking) {
  const auto verdicts = hyperbolicTest(system, blocking);
  return std::all_of(verdicts.begin(), verdicts.end(),
                     [](bool b) { return b; });
}

}  // namespace mpcp
