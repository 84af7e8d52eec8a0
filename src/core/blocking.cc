#include "core/blocking.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "common/math_util.h"

namespace mpcp {

namespace {

/// The five factors and the deferred-execution penalty of one task.
/// `blocker` is per-processor scratch, reused across tasks.
BlockingBreakdown computeFor(const SystemIndex& index,
                             const PriorityTables& tables,
                             const BlockingOptions& options, const Task& ti,
                             std::vector<std::optional<Priority>>& blocker) {
  const TaskProfile& pi = index.profile(ti.id);
  BlockingBreakdown b;

  // ---- F1: local blocking from lower-priority local critical sections.
  b.local_lower_cs = index.localBlocking(ti, tables);

  // ---- F2: one lower-priority gcs ahead per global access (priority-
  // ordered queues), remote lower-priority holders only (host-processor
  // lower-priority gcs's are F5's job).
  for (const SectionUse& access : pi.global_sections) {
    Duration worst = 0;
    for (const ResourceUser& u : index.users(access.resource)) {
      if (u.priority >= ti.priority || u.processor == ti.processor) continue;
      worst = std::max(worst, u.max_cs);
    }
    b.lower_gcs_queue += worst;
  }

  // ---- F3: remote higher-priority tasks on shared semaphores.
  for (ResourceId r : pi.global_resources) {
    for (const ResourceUser& u : index.users(r)) {
      if (u.priority <= ti.priority || u.processor == ti.processor) continue;
      b.higher_gcs_remote += ceilDiv(ti.period, u.period) * u.total;
    }
  }

  // ---- F4: higher-gcs-priority preemption on blocking processors.
  // A blocking processor P_k hosts a lower-priority task with a gcs on a
  // semaphore in GS_i (that gcs can directly block J_i under F2);
  // blocker[k] is the lowest gcs priority of those direct blockers.
  std::fill(blocker.begin(), blocker.end(), std::nullopt);
  bool any_blocker = false;
  for (ResourceId r : pi.global_resources) {
    for (const ResourceUser& u : index.users(r)) {
      if (u.priority >= ti.priority || u.processor == ti.processor) continue;
      const Priority gp = tables.gcsPriority(r, u.processor);
      auto& slot = blocker[static_cast<std::size_t>(u.processor.value())];
      if (!slot.has_value() || gp < *slot) slot = gp;
      any_blocker = true;
    }
  }
  if (any_blocker) {
    for (ResourceId r : index.globals()) {
      const bool in_gs = pi.usesGlobal(r);
      for (const ResourceUser& u : index.users(r)) {
        const auto& slot =
            blocker[static_cast<std::size_t>(u.processor.value())];
        if (u.processor == ti.processor || !slot.has_value()) continue;
        // Cannot preempt any blocker.
        if (tables.gcsPriority(r, u.processor) <= *slot) continue;
        // F3 already charged higher-priority remote gcs's on GS_i.
        if (u.priority > ti.priority && in_gs) continue;
        b.blocking_proc_gcs += ceilDiv(ti.period, u.period) * u.total;
      }
    }
  }

  // ---- F5: lower-priority local gcs's preempting J_i's normal code.
  const auto a = static_cast<Duration>(pi.suspensionOpportunities() + 1);
  for (TaskId tl : index.lowerLocal(ti)) {
    const TaskProfile& pl = index.profile(tl);
    if (pl.ng() == 0) continue;
    const auto c = static_cast<Duration>(2 * pl.ng());
    const Duration count =
        options.paper_literal_factor5 ? std::max(a, c) : std::min(a, c);
    b.local_lower_gcs += count * pl.maxGcs();
  }

  // ---- Deferred-execution penalty: suspending higher-priority local
  // tasks can each inflict one extra preemption per period.
  if (options.include_deferred_execution) {
    b.deferred_execution = index.deferredExecution(ti);
  }
  return b;
}

}  // namespace

MpcpBlockingAnalysis::MpcpBlockingAnalysis(const TaskSystem& system,
                                           const PriorityTables& tables,
                                           BlockingOptions options)
    : MpcpBlockingAnalysis(SystemIndex(system), tables, options) {}

MpcpBlockingAnalysis::MpcpBlockingAnalysis(const SystemIndex& index,
                                           const PriorityTables& tables,
                                           BlockingOptions options) {
  const TaskSystem& sys = index.system();
  std::vector<std::optional<Priority>> blocker(
      static_cast<std::size_t>(sys.processorCount()));
  breakdowns_.reserve(sys.tasks().size());
  for (const Task& t : sys.tasks()) {
    breakdowns_.push_back(computeFor(index, tables, options, t, blocker));
  }
}

const BlockingBreakdown& MpcpBlockingAnalysis::blocking(TaskId t) const {
  MPCP_CHECK(t.valid() &&
                 static_cast<std::size_t>(t.value()) < breakdowns_.size(),
             "blocking(): unknown task " << t);
  return breakdowns_[static_cast<std::size_t>(t.value())];
}

}  // namespace mpcp
