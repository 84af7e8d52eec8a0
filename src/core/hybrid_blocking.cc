#include "core/hybrid_blocking.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"

namespace mpcp {

namespace {

bool sharedMode(const HybridPolicy& policy, ResourceId r) {
  return policy.of(r) == GlobalPolicy::kSharedMemory;
}

ProcessorId syncOf(const TaskSystem& sys, ResourceId r) {
  return *sys.resource(r).sync_processor;
}

/// D3': how long other tasks' sections delay J_i's agents on the sync
/// processors they visit — zero unless J_i locks a message-mode resource.
Duration agentInterference(const SystemIndex& index,
                           const PriorityTables& tables,
                           const HybridPolicy& policy, const Task& ti) {
  const TaskSystem& sys = index.system();
  const TaskProfile& pi = index.profile(ti.id);
  // Lowest ceiling among the message-mode resources J_i accesses on
  // `proc`, optionally excluding one; nullopt if there are none.
  const auto min_ceiling =
      [&](ProcessorId proc, ResourceId excluded) -> std::optional<Priority> {
    std::optional<Priority> m;
    for (const SectionUse& access : pi.global_sections) {
      if (sharedMode(policy, access.resource) || access.resource == excluded ||
          syncOf(sys, access.resource) != proc) {
        continue;
      }
      const Priority c = tables.ceiling(access.resource);
      if (!m.has_value() || c < *m) m = c;
    }
    return m;
  };
  if (std::all_of(pi.global_sections.begin(), pi.global_sections.end(),
                  [&](const SectionUse& z) {
                    return sharedMode(policy, z.resource);
                  })) {
    return 0;  // J_i sends no agents
  }

  Duration interference = 0;
  for (ResourceId r : index.globals()) {
    const bool in_gs = pi.usesGlobal(r);
    if (sharedMode(policy, r)) {
      // A shared-memory gcs executes on its task's host at gcsPriority
      // elevation — above every message-based agent ceiling — so when
      // that host doubles as a sync processor J_i's agents visit, the
      // section delays them. The shared-side terms never charge this
      // cross-kind channel: F2' covers only the queue head of resources
      // J_i itself locks, and F3' only instances of higher-priority
      // tasks on them.
      for (const ResourceUser& u : index.users(r)) {
        if (u.task == ti.id) continue;
        if (!min_ceiling(u.processor, ResourceId()).has_value()) continue;
        if (u.priority > ti.priority &&
            (u.processor == ti.processor || in_gs)) {
          continue;  // plain preemption, or charged by F3'
        }
        interference += ceilDiv(ti.period, u.period) * u.total;
      }
      continue;
    }
    // Same-resource queueing is charged by F2' (one lower-priority holder
    // per access) and F3' (higher-priority re-entries) — but a
    // lower-priority task's section also delays J_i's agents for the
    // *other* resources J_i uses on that sync CPU (equal-or-higher
    // ceilings are not preemptable), a channel the queue charges do not
    // cover (D3' part a). Other resources' agents delay
    // J_i's on any sync CPU it visits at a ceiling it cannot preempt.
    const auto m = min_ceiling(syncOf(sys, r), in_gs ? r : ResourceId());
    if (!m.has_value() || tables.ceiling(r) < *m) continue;
    for (const ResourceUser& u : index.users(r)) {
      if (u.task == ti.id || (in_gs && u.priority > ti.priority)) continue;
      interference += ceilDiv(ti.period, u.period) * u.total;
    }
  }
  return interference;
}

}  // namespace

std::vector<BlockingBreakdown> hybridBlocking(
    const TaskSystem& sys, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options) {
  return hybridBlocking(SystemIndex(sys), tables, policy, options);
}

std::vector<BlockingBreakdown> hybridBlocking(
    const SystemIndex& index, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options) {
  using enum BlockingFactor;
  const TaskSystem& sys = index.system();
  std::vector<BlockingBreakdown> out(sys.tasks().size());

  const auto shared = [&](ResourceId r) { return sharedMode(policy, r); };

  // F5' reads each task's shared-mode gcs count and longest one.
  struct SharedGcs {
    int count = 0;
    Duration longest = 0;
  };
  std::vector<SharedGcs> shared_gcs(sys.tasks().size());
  for (const Task& t : sys.tasks()) {
    SharedGcs& s = shared_gcs[static_cast<std::size_t>(t.id.value())];
    for (const SectionUse& z : index.profile(t.id).global_sections) {
      if (!shared(z.resource)) continue;
      ++s.count;
      s.longest = std::max(s.longest, z.duration);
    }
  }

  std::vector<std::optional<Priority>> blocker(
      static_cast<std::size_t>(sys.processorCount()));
  for (const Task& ti : sys.tasks()) {
    const TaskProfile& pi = index.profile(ti.id);
    BlockingBreakdown& b = out[static_cast<std::size_t>(ti.id.value())];
    const auto is_local = [&](const ResourceUser& u) {
      return u.processor == ti.processor;
    };

    // ---- F1: local blocking, identical to MPCP.
    b[kLocalLowerCs] = index.localBlocking(ti, tables);

    // ---- F2': queue-head wait per access, mode-aware.
    for (const SectionUse& access : pi.global_sections) {
      const bool shared_mode = shared(access.resource);
      Duration worst = 0;
      for (const ResourceUser& u : index.users(access.resource)) {
        if (u.priority >= ti.priority) continue;
        if (shared_mode && is_local(u)) continue;  // F5' covers these
        worst = std::max(worst, u.max_cs);
      }
      b[kLowerGcsQueue] += worst;
    }

    // ---- F3': higher-priority interference on shared semaphores.
    for (ResourceId r : pi.global_resources) {
      for (const ResourceUser& u : index.users(r)) {
        if (u.priority <= ti.priority) continue;
        // Host-local higher-priority shared-memory gcs = plain preemption.
        if (is_local(u) && shared(r)) continue;
        b[kHigherGcsRemote] += ceilDiv(ti.period, u.period) * u.total;
      }
    }

    // ---- F4': preemption of shared-mode direct blockers, by sections
    // that *execute* on the blocker's processor at a higher elevation.
    std::fill(blocker.begin(), blocker.end(), std::nullopt);
    bool any_blocker = false;
    for (ResourceId r : pi.global_resources) {
      if (!shared(r)) continue;
      for (const ResourceUser& u : index.users(r)) {
        if (u.priority >= ti.priority || is_local(u)) continue;
        const Priority gp = tables.gcsPriority(r, u.processor);
        auto& slot = blocker[static_cast<std::size_t>(u.processor.value())];
        if (!slot.has_value() || gp < *slot) slot = gp;
        any_blocker = true;
      }
    }
    if (any_blocker) {
      for (ResourceId r : index.globals()) {
        const bool in_gs = pi.usesGlobal(r);
        const bool shared_r = shared(r);
        for (const ResourceUser& u : index.users(r)) {
          const ProcessorId pk = u.processor;
          const auto& slot = blocker[static_cast<std::size_t>(pk.value())];
          if (is_local(u) || !slot.has_value()) continue;
          if (!shared_r && syncOf(sys, r) != pk) continue;  // runs elsewhere
          // Elevation of a gcs on r executing on P_k.
          const Priority e =
              shared_r ? tables.gcsPriority(r, pk) : tables.ceiling(r);
          if (e <= *slot) continue;
          if (u.priority > ti.priority && in_gs) continue;  // charged by F3'
          b[kBlockingProcGcs] += ceilDiv(ti.period, u.period) * u.total;
        }
      }
    }

    // ---- F5': lower-priority local *shared-mode* gcs's.
    const auto a = static_cast<Duration>(pi.suspensionOpportunities() + 1);
    for (TaskId tl : index.lowerLocal(ti)) {
      const SharedGcs& s = shared_gcs[static_cast<std::size_t>(tl.value())];
      if (s.count == 0) continue;
      const auto c = static_cast<Duration>(2 * s.count);
      const Duration count =
          options.paper_literal_factor5 ? std::max(a, c) : std::min(a, c);
      b[kLocalLowerGcs] += count * s.longest;
    }

    // ---- D3': agent interference on visited sync processors.
    b[kAgentInterference] = agentInterference(index, tables, policy, ti);

    // ---- D4': message-mode gcs's of others executing on my host.
    for (ResourceId r : index.globals()) {
      if (shared(r) || syncOf(sys, r) != ti.processor) continue;
      for (const ResourceUser& u : index.users(r)) {
        if (u.task == ti.id) continue;
        if (is_local(u) && u.priority > ti.priority) continue;  // preemption
        b[kHostAgentLoad] += ceilDiv(ti.period, u.period) * u.total;
      }
    }

    // ---- deferred execution.
    if (options.include_deferred_execution) {
      b[kDeferredExecution] = index.deferredExecution(ti);
    }
  }
  return out;
}

MpcpBlockingAnalysis::MpcpBlockingAnalysis(const TaskSystem& system,
                                           const PriorityTables& tables,
                                           BlockingOptions options)
    : breakdowns_(hybridBlocking(system, tables,
                                 HybridPolicy::allShared(system), options)) {}

const BlockingBreakdown& MpcpBlockingAnalysis::blocking(TaskId t) const {
  MPCP_CHECK(t.valid() &&
                 static_cast<std::size_t>(t.value()) < breakdowns_.size(),
             "blocking(): unknown task " << t);
  return breakdowns_[static_cast<std::size_t>(t.value())];
}

std::vector<BlockingBreakdown> dpcpBlocking(const TaskSystem& system,
                                            const PriorityTables& tables,
                                            BlockingOptions options) {
  return hybridBlocking(system, tables, HybridPolicy::allMessage(system),
                        options);
}

}  // namespace mpcp
