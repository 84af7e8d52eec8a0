#include "analysis/blocking_dpcp.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"

namespace mpcp {

std::vector<DpcpBlockingBreakdown> dpcpBlocking(const TaskSystem& system,
                                                const PriorityTables& tables,
                                                DpcpBlockingOptions options) {
  return dpcpBlocking(SystemIndex(system), tables, options);
}

std::vector<DpcpBlockingBreakdown> dpcpBlocking(const SystemIndex& index,
                                                const PriorityTables& tables,
                                                DpcpBlockingOptions options) {
  const TaskSystem& system = index.system();
  std::vector<DpcpBlockingBreakdown> out(system.tasks().size());

  const auto sync_of = [&](ResourceId r) -> ProcessorId {
    const auto& sp = system.resource(r).sync_processor;
    MPCP_CHECK(sp.has_value(), "resource " << r << " has no sync processor");
    return *sp;
  };

  for (const Task& ti : system.tasks()) {
    const TaskProfile& pi = index.profile(ti.id);
    DpcpBlockingBreakdown& b =
        out[static_cast<std::size_t>(ti.id.value())];

    // ---- D1: local blocking (same term as MPCP F1).
    b.local_lower_cs = index.localBlocking(ti, tables);

    // ---- D2: one lower-priority gcs ahead per access.
    for (const SectionUse& access : pi.global_sections) {
      Duration worst = 0;
      for (const ResourceUser& u : index.users(access.resource)) {
        if (u.priority >= ti.priority) continue;
        worst = std::max(worst, u.max_cs);
      }
      b.lower_gcs_queue += worst;
    }

    // ---- D3: agent interference per sync processor J_i visits.
    // Lowest ceiling among the resources J_i accesses on `proc`,
    // optionally excluding one resource; nullopt if there are none.
    const auto min_ceiling =
        [&](ProcessorId proc, ResourceId excluded) -> std::optional<Priority> {
      std::optional<Priority> m;
      for (const SectionUse& access : pi.global_sections) {
        if (access.resource == excluded || sync_of(access.resource) != proc) {
          continue;
        }
        const Priority c = tables.ceiling(access.resource);
        if (!m.has_value() || c < *m) m = c;
      }
      return m;
    };
    // Whether a gcs on `r` delays J_i's agents: it runs on a sync
    // processor J_i visits at a ceiling J_i's agents cannot preempt.
    const auto unpreemptable = [&](ResourceId r, ResourceId excluded) {
      const auto m = min_ceiling(sync_of(r), excluded);
      return m.has_value() && tables.ceiling(r) >= *m;
    };
    for (ResourceId r : index.globals()) {
      bool charge_higher = true;
      bool charge_lower = true;
      if (pi.usesGlobal(r)) {
        // Same-resource contention: the priority-ordered queue admits
        // one lower-priority holder per access (charged by D2) plus
        // re-entries of *higher-priority* tasks — the analogue of
        // MPCP's F3. A lower-priority task's section on a shared
        // resource also delays J_i's agents for the *other* resources
        // J_i uses on that sync CPU (equal-or-higher ceiling agents are
        // not preemptable), a channel D2 does not cover.
        charge_lower = unpreemptable(r, r);
      } else {
        // Other resources' agents competing for a sync processor J_i
        // visits, at a ceiling J_i's agents cannot preempt.
        charge_higher = charge_lower = unpreemptable(r, ResourceId());
      }
      if (!charge_higher && !charge_lower) continue;
      for (const ResourceUser& u : index.users(r)) {
        if (u.task == ti.id) continue;
        if (!(u.priority > ti.priority ? charge_higher : charge_lower)) {
          continue;
        }
        b.agent_interference += ceilDiv(ti.period, u.period) * u.total;
      }
    }

    // ---- D4: remote-agent load on J_i's host processor.
    for (ResourceId r : index.globals()) {
      if (sync_of(r) != ti.processor) continue;
      for (const ResourceUser& u : index.users(r)) {
        if (u.task == ti.id) continue;
        // Local higher-priority tasks are already in the preemption term.
        if (u.processor == ti.processor && u.priority > ti.priority) continue;
        b.host_agent_load += ceilDiv(ti.period, u.period) * u.total;
      }
    }

    // ---- Deferred-execution penalty.
    if (options.include_deferred_execution) {
      b.deferred_execution = index.deferredExecution(ti);
    }
  }
  return out;
}

}  // namespace mpcp
