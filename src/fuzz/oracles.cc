#include "fuzz/oracles.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/strf.h"
#include "core/simulate.h"
#include "fuzz/protocols.h"
#include "sim/reference.h"
#include "trace/invariants.h"

namespace mpcp::fuzz {

namespace {

using FinishMap = std::map<std::pair<std::int32_t, std::int64_t>, Time>;

FinishMap finishMapOf(const SimResult& r) {
  FinishMap out;
  for (const JobRecord& jr : r.jobs) {
    out[{jr.id.task.value(), jr.id.instance}] = jr.finish;
  }
  return out;
}

/// First divergence between two finish maps; nullopt when identical.
std::optional<std::string> diffFinishes(const TaskSystem& sys,
                                        const FinishMap& a, const char* la,
                                        const FinishMap& b, const char* lb) {
  if (a.size() != b.size()) {
    return strf(la, " released ", a.size(), " jobs, ", lb, " released ",
                b.size());
  }
  for (const auto& [key, fa] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      return strf(sys.task(TaskId(key.first)).name, "#", key.second,
                  " missing under ", lb);
    }
    if (it->second != fa) {
      return strf(sys.task(TaskId(key.first)).name, "#", key.second,
                  " finishes at t=", fa, " under ", la, " but t=", it->second,
                  " under ", lb);
    }
  }
  return std::nullopt;
}

Duration maxBlockedOf(const SimResult& r, TaskId t) {
  Duration worst = 0;
  for (const JobRecord& jr : r.jobs) {
    if (jr.id.task == t) worst = std::max(worst, jr.blocked);
  }
  return worst;
}

void addReport(std::vector<OracleFailure>& out, const std::string& protocol,
               const char* oracle, const InvariantReport& report) {
  if (report.ok()) return;
  out.push_back({protocol, strf("invariant:", oracle),
                 strf(report.violations.front(), " (+",
                      report.violations.size() - 1, " more)")});
}

/// Engine vs the independent tick-stepped reference on the short
/// differential horizon: a divergence in job finish times is an `oracle`
/// finding, an internal check tripping is a `crash_oracle` one. The
/// engine run repeats any mutation, so a mis-granting variant shows up
/// as a schedule divergence. Systems either side rejects are skipped.
void checkAgainstReference(std::vector<OracleFailure>& out,
                           const TaskSystem& system, ProtocolKind kind,
                           const char* oracle, const char* crash_oracle,
                           Time horizon, Mutation mutation,
                           const fault::FaultPlan* plan = nullptr) {
  const char* name = toString(kind);
  SimConfig config{.horizon = horizon, .record_trace = false};
  config.fault_plan = plan;
  try {
    const auto engine = tryRunProtocol(name, system, config, mutation);
    if (!engine.has_value()) return;
    FinishMap ref_map;
    for (const ReferenceJobResult& rj :
         simulateReference(kind, system, horizon, plan).jobs) {
      ref_map[{rj.id.task.value(), rj.id.instance}] = rj.finish;
    }
    if (const auto diff = diffFinishes(system, finishMapOf(*engine), "engine",
                                       ref_map, "reference")) {
      out.push_back({name, oracle, *diff});
    }
  } catch (const ConfigError&) {
  } catch (const InvariantError& e) {
    out.push_back({name, crash_oracle, e.what()});
  }
}

/// Spin protocols never suspend on a lock: between a job's kLockWait and
/// the matching kLockGrant it busy-waits non-preemptively, so NO other
/// job may execute on that processor. Audited against the Gantt segments
/// (per processor the spin windows are disjoint and close in time order,
/// so each window list stays sorted and binary-searchable).
std::optional<std::string> spinYieldViolation(const TaskSystem& sys,
                                              const SimResult& sim) {
  struct Window {
    Time begin, end;
    JobId job;
    ResourceId resource;
  };
  std::vector<std::vector<Window>> per_proc(
      static_cast<std::size_t>(sys.processorCount()));
  std::map<std::pair<std::int32_t, std::int64_t>, Window> open;
  for (const TraceEvent& e : sim.trace) {
    const auto key = std::make_pair(e.job.task.value(), e.job.instance);
    if (e.kind == Ev::kLockWait) {
      open[key] = {e.t, -1, e.job, e.resource};
    } else if (e.kind == Ev::kLockGrant) {
      const auto it = open.find(key);
      if (it == open.end() || it->second.resource != e.resource) continue;
      it->second.end = e.t;
      per_proc[static_cast<std::size_t>(e.processor.value())].push_back(
          it->second);
      open.erase(it);
    }
  }
  for (auto& [key, w] : open) {  // spinning at the horizon: still a window
    w.end = sim.horizon;
    // The spinner kept its processor the whole time; look it up via the
    // task binding (the job never migrates while spinning).
    per_proc[static_cast<std::size_t>(
                 sys.task(TaskId(key.first)).processor.value())]
        .push_back(w);
  }
  for (const ExecSegment& seg : sim.segments) {
    const auto& windows =
        per_proc[static_cast<std::size_t>(seg.processor.value())];
    // First window ending after this segment starts (sorted, disjoint).
    auto it = std::partition_point(
        windows.begin(), windows.end(),
        [&](const Window& w) { return w.end <= seg.begin; });
    for (; it != windows.end() && it->begin < seg.end; ++it) {
      if (it->job == seg.job) continue;
      return strf(seg.job, " executed on ", seg.processor, " at [",
                  std::max(seg.begin, it->begin), ", ",
                  std::min(seg.end, it->end), ") while ", it->job,
                  " was spinning for ", it->resource,
                  " — spinners must never yield");
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<OracleFailure> checkSystem(const TaskSystem& system,
                                       const OracleOptions& options) {
  std::vector<OracleFailure> failures;
  const std::vector<std::string>& selected =
      options.protocols.empty() ? protocolNames() : options.protocols;
  const auto wants = [&](const std::string& name) {
    return std::find(selected.begin(), selected.end(), name) != selected.end();
  };

  const SimConfig config{.horizon_cap = options.horizon_cap};
  const PriorityTables tables(system);
  std::map<std::string, SimResult> runs;  // applicable protocols only

  // Per-protocol runs: invariants (a) + soundness (b).
  for (const std::string& name : protocolNames()) {
    if (!wants(name)) continue;
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol(name, system, config, options.mutation);
    } catch (const InvariantError& e) {
      failures.push_back({name, "crash:invariant", e.what()});
      continue;
    }
    if (!sim.has_value()) continue;  // protocol rejects this system shape

    // (a) trace invariants.
    addReport(failures, name, "mutual-exclusion",
              checkMutualExclusion(system, *sim));
    if (name != "none" && name != "pip" && name != "spin-fifo") {
      // FIFO queues ("none", "spin-fifo") order by arrival; PIP waiters
      // can be boosted above their assigned priority, so the
      // assigned-priority handoff audit applies to none of them.
      addReport(failures, name, "priority-handoff",
                checkPriorityOrderedHandoff(system, *sim));
    }
    if (name == "spin-fifo" || name == "spin-prio") {
      if (const auto v = spinYieldViolation(system, *sim)) {
        failures.push_back({name, "invariant:spin-never-yields", *v});
      }
    }
    if (name == "mpcp") {
      addReport(failures, name, "gcs-preemption",
                checkGcsPreemptionRule(system, *sim));
      addReport(failures, name, "gcs-priority",
                checkGcsPriorityAssignment(system, *sim, tables,
                                           GcsPriorityRule::kSharedMemory));
    }
    if (name == "dpcp") {
      addReport(failures, name, "gcs-priority",
                checkGcsPriorityAssignment(system, *sim, tables,
                                           GcsPriorityRule::kMessageBased));
    }

    // (b) soundness: the *correct* protocol's analysis vs this run.
    if (const auto analysis = tryAnalyzeProtocol(name, system)) {
      const bool accepted =
          analysis->report.rta_all || analysis->report.ll_all;
      if (accepted && sim->any_deadline_miss) {
        failures.push_back(
            {name, "soundness:accepted-but-missed",
             "analysis declared the system schedulable but the simulation "
             "missed a deadline"});
      }
      if (!sim->any_deadline_miss) {
        for (const Task& t : system.tasks()) {
          const Duration bound =
              analysis->blocking[static_cast<std::size_t>(t.id.value())];
          const Duration observed = maxBlockedOf(*sim, t.id);
          if (observed > bound) {
            failures.push_back(
                {name, "soundness:blocking-bound",
                 strf(t.name, " observed blocking ", observed,
                      " exceeds the analytical bound ", bound)});
            break;  // one exceedance identifies the run; keep output small
          }
        }
      }
    }

    runs.emplace(name, std::move(*sim));
  }

  if (!options.cross_checks) return failures;

  // (c) cross-implementation differentials.
  if (runs.count("mpcp") != 0) {
    checkAgainstReference(failures, system, ProtocolKind::kMpcp,
                          "cross:reference-mpcp", "crash:invariant",
                          options.differential_horizon, options.mutation);
  }

  for (const ProtocolKind kind :
       {ProtocolKind::kSpinFifo, ProtocolKind::kSpinPrio}) {
    if (runs.count(toString(kind)) == 0) continue;
    checkAgainstReference(failures, system, kind, "cross:reference-spin",
                          "crash:invariant", options.differential_horizon,
                          options.mutation);
  }

  if (runs.count("dpcp") != 0) {
    checkAgainstReference(failures, system, ProtocolKind::kDpcp,
                          "cross:reference-dpcp", "crash:invariant",
                          options.differential_horizon, options.mutation);
  }

  if (!system.hasGlobalResources()) {
    // With no globals every ceiling protocol degenerates to local PCP, so
    // PCP / MPCP / DPCP must produce the identical schedule.
    const char* kAgree[] = {"pcp", "mpcp", "dpcp"};
    for (int i = 0; i + 1 < 3; ++i) {
      const auto a = runs.find(kAgree[i]);
      const auto b = runs.find(kAgree[i + 1]);
      if (a == runs.end() || b == runs.end()) continue;
      if (const auto diff =
              diffFinishes(system, finishMapOf(a->second), kAgree[i],
                           finishMapOf(b->second), kAgree[i + 1])) {
        failures.push_back({strf(kAgree[i], "+", kAgree[i + 1]),
                            "cross:no-global-agreement", *diff});
      }
    }
  }

  return failures;
}

std::vector<FaultPolicy> faultPolicies(const FaultOracleOptions& options) {
  using fault::ContainmentConfig;
  using fault::MissAction;
  std::vector<FaultPolicy> out;
  out.push_back({"none", ContainmentConfig{}});
  ContainmentConfig watchdog;
  watchdog.holder_watchdog = options.watchdog_timeout;
  out.push_back({"watchdog", watchdog});
  ContainmentConfig budget;
  budget.budget_enforce = true;
  budget.grace = options.grace;
  out.push_back({"budget-enforce", budget});
  ContainmentConfig abort_job;
  abort_job.on_miss = MissAction::kAbortJob;
  out.push_back({"job-abort", abort_job});
  ContainmentConfig skip;
  skip.on_miss = MissAction::kSkipNextRelease;
  out.push_back({"skip-next-release", skip});
  return out;
}

std::vector<OracleFailure> checkSystemFaults(const TaskSystem& system,
                                             const fault::FaultPlan& plan,
                                             const FaultOracleOptions& options) {
  std::vector<OracleFailure> failures;

  // Policy sweep: MPCP + plan under each containment policy. Whatever the
  // faults do, semaphore state must stay coherent (mutual exclusion) and
  // every handoff — including forced releases and budget kills — must go
  // to the highest-priority waiter.
  for (const FaultPolicy& policy : faultPolicies(options)) {
    SimConfig config{.horizon_cap = options.horizon_cap};
    config.fault_plan = &plan;
    config.containment = policy.config;
    std::optional<SimResult> sim;
    try {
      sim = tryRunProtocol("mpcp", system, config);
    } catch (const InvariantError& e) {
      failures.push_back(
          {"mpcp", "fault:crash", strf("policy ", policy.name, ": ", e.what())});
      continue;
    }
    if (!sim.has_value()) return failures;  // MPCP rejects this system shape

    const InvariantReport mutex = checkMutualExclusion(system, *sim);
    if (!mutex.ok()) {
      failures.push_back({"mpcp", "fault:mutual-exclusion",
                          strf("policy ", policy.name, ": ",
                               mutex.violations.front())});
    }
    const InvariantReport handoff = checkPriorityOrderedHandoff(system, *sim);
    if (!handoff.ok()) {
      failures.push_back({"mpcp", "fault:priority-handoff",
                          strf("policy ", policy.name, ": ",
                               handoff.violations.front())});
    }
  }

  // Neutrality: with NO plan, containment machinery that cannot trigger
  // (budget at grace 1.0, a watchdog that never times out) must leave the
  // schedule byte-identical to a plain run.
  try {
    const auto plain = tryRunProtocol(
        "mpcp", system,
        SimConfig{.horizon_cap = options.horizon_cap, .record_trace = false});
    if (plain.has_value()) {
      const FinishMap plain_map = finishMapOf(*plain);
      fault::ContainmentConfig inert_budget;
      inert_budget.budget_enforce = true;
      inert_budget.grace = 1.0;
      fault::ContainmentConfig inert_watchdog;
      inert_watchdog.holder_watchdog = kTimeInfinity;
      const std::pair<const char*, fault::ContainmentConfig> inert[] = {
          {"budget(grace=1)", inert_budget}, {"watchdog(inf)", inert_watchdog}};
      for (const auto& [label, cc] : inert) {
        SimConfig config{.horizon_cap = options.horizon_cap,
                         .record_trace = false};
        config.containment = cc;
        const auto guarded = tryRunProtocol("mpcp", system, config);
        if (!guarded.has_value()) continue;
        if (const auto diff = diffFinishes(system, plain_map, "plain",
                                           finishMapOf(*guarded), label)) {
          failures.push_back({"mpcp", "fault:neutral-containment",
                              strf(label, ": ", *diff)});
        }
      }
    }
  } catch (const InvariantError& e) {
    failures.push_back({"mpcp", "fault:crash", e.what()});
  }

  // Differential under faults: the reference simulator mirrors every
  // fault class except processor stalls, so for mirrorable plans the
  // engine under policy "none" must still agree with it tick for tick.
  if (plan.mirrorable()) {
    checkAgainstReference(failures, system, ProtocolKind::kMpcp,
                          "fault:cross-reference", "fault:crash",
                          options.differential_horizon, Mutation::kNone,
                          &plan);
  }

  return failures;
}

}  // namespace mpcp::fuzz
