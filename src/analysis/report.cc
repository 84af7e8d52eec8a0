#include "analysis/report.h"

#include <iomanip>
#include <set>
#include <sstream>

#include "analysis/profiles.h"
#include "common/strf.h"

namespace mpcp {

namespace {

std::string prioStr(const TaskSystem& system, Priority p) {
  if (p == kPriorityFloor) return "-";
  const Priority pg = system.globalBase();
  if (p >= pg) {
    return strf("P_G+", p.urgency() - pg.urgency());
  }
  return strf(p.urgency());
}

}  // namespace

std::string renderCeilingTable(const TaskSystem& system,
                               const PriorityTables& tables) {
  std::ostringstream os;
  os << padRight("semaphore", 14) << padRight("scope", 8)
     << padRight("users", 26) << "priority ceiling\n";
  os << std::string(64, '-') << "\n";
  for (const ResourceInfo& r : system.resources()) {
    std::string users;
    for (TaskId t : r.users) {
      if (!users.empty()) users += ",";
      users += system.task(t).name;
    }
    os << padRight(r.name, 14) << padRight(toString(r.scope), 8)
       << padRight(users, 26) << prioStr(system, tables.ceiling(r.id))
       << "\n";
  }
  return os.str();
}

std::string renderGcsPriorityTable(const TaskSystem& system,
                                   const PriorityTables& tables) {
  std::ostringstream os;
  os << padRight("task", 10) << padRight("semaphore", 12)
     << padRight("gcs exec priority", 20) << "semaphore ceiling\n";
  os << std::string(60, '-') << "\n";
  const auto profiles = buildProfiles(system);
  for (const Task& t : system.tasks()) {
    const TaskProfile& p = profiles[static_cast<std::size_t>(t.id.value())];
    std::set<std::int32_t> seen;
    for (const SectionUse& s : p.global_sections) {
      if (!seen.insert(s.resource.value()).second) continue;
      os << padRight(t.name, 10)
         << padRight(system.resource(s.resource).name, 12)
         << padRight(
                prioStr(system, tables.gcsPriority(s.resource, t.processor)),
                20)
         << prioStr(system, tables.ceiling(s.resource)) << "\n";
    }
  }
  return os.str();
}

std::string renderScheduleReport(const TaskSystem& system,
                                 const SchedulabilityReport& report) {
  std::ostringstream os;
  os << padRight("task", 10) << padRight("proc", 6) << padRight("C", 7)
     << padRight("T", 8) << padRight("B", 8) << padRight("U-lhs", 9)
     << padRight("LL-bound", 10) << padRight("LL", 5) << padRight("R", 8)
     << "RTA\n";
  os << std::string(76, '-') << "\n";
  for (const TaskVerdict& v : report.tasks) {
    const Task& t = system.task(v.task);
    os << padRight(t.name, 10) << padRight(strf(t.processor), 6)
       << padRight(strf(t.wcet), 7) << padRight(strf(t.period), 8)
       << padRight(strf(v.blocking), 8)
       << padRight(strf(std::fixed, std::setprecision(3), v.utilization_lhs),
                   9)
       << padRight(
              strf(std::fixed, std::setprecision(3), v.utilization_bound), 10)
       << padRight(v.ll_ok ? "ok" : "NO", 5)
       << padRight(strf(v.response_time), 8) << (v.rta_ok ? "ok" : "NO")
       << "\n";
  }
  os << "overall: Theorem-3 " << (report.ll_all ? "SCHEDULABLE" : "rejected")
     << " | RTA " << (report.rta_all ? "SCHEDULABLE" : "rejected") << "\n";
  return os.str();
}

std::string renderCountersReport(const TaskSystem& system,
                                 const obs::Counters& c) {
  std::ostringstream os;
  os << "jobs: released=" << c.jobs_released
     << " finished=" << c.jobs_finished
     << " deadline-misses=" << c.deadline_misses << "\n";
  os << "scheduling: preemptions=" << c.preemptions
     << " gcs-preemptions=" << c.gcs_preemptions
     << " migrations=" << c.migrations
     << " inheritance-updates=" << c.inheritance_updates << "\n";
  os << "faults: injected=" << c.faults_injected
     << " contained=" << c.faults_contained
     << " forced-releases=" << c.forced_releases
     << " budget-kills=" << c.budget_kills
     << " jobs-aborted=" << c.jobs_aborted
     << " releases-skipped=" << c.releases_skipped
     << " misses-while-degraded=" << c.misses_while_degraded << "\n";
  os << "ready-queue high-water marks:";
  for (std::size_t p = 0; p < c.ready_hwm.size(); ++p) {
    os << " P" << p << "=" << c.ready_hwm[p];
  }
  os << "\n";
  os << padRight("semaphore", 14) << padRight("acquisitions", 14)
     << padRight("contended", 11) << "handoffs\n";
  os << std::string(47, '-') << "\n";
  for (const ResourceInfo& r : system.resources()) {
    const obs::ResourceCounters& rc = c.res(r.id);
    os << padRight(r.name, 14) << padRight(strf(rc.acquisitions), 14)
       << padRight(strf(rc.contended_waits), 11) << rc.handoffs << "\n";
  }
  os << "blocking time per task (ticks, log2 buckets):\n";
  for (const Task& t : system.tasks()) {
    os << "  " << padRight(t.name, 8)
       << obs::renderHistogram(
              c.task_blocking[static_cast<std::size_t>(t.id.value())])
       << "\n";
  }
  return os.str();
}

}  // namespace mpcp
