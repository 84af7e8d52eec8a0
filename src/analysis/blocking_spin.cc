#include "analysis/blocking_spin.h"

#include <algorithm>

#include "common/math_util.h"

namespace mpcp {
namespace {

/// Per-request spin wait of `self` (one user of a semaphore) under
/// priority-ordered grants: one in-service request of arbitrary
/// priority, plus every higher-or-equal-priority remote request issued
/// while we wait — a fixpoint in the wait itself. ceil+1 instances per
/// interferer cover the carried-in job. Divergence (low-priority
/// starvation) saturates. Users fold nested inner sections into the
/// outermost duration — exactly the group-lock collapse spin analysis
/// assumes.
Duration priorityOrderedWait(std::span<const ResourceUser> users,
                             const ResourceUser& self) {
  Duration max_any = 0;
  bool any_remote = false;
  for (const ResourceUser& u : users) {
    if (u.processor == self.processor) continue;
    any_remote = true;
    max_any = std::max(max_any, u.max_cs);
  }
  if (!any_remote) return 0;

  Duration w = max_any;
  for (int it = 0; it < kSpinFixpointIterationCap; ++it) {
    // Accumulate wide: a near-saturation wait times a request count can
    // overflow Duration before the clamp fires.
    __int128 next = max_any;
    for (const ResourceUser& u : users) {
      if (u.processor == self.processor) continue;
      if (u.priority < self.priority) continue;
      next += static_cast<__int128>(ceilDiv(w, u.period) + 1) * u.requests *
              u.max_cs;
    }
    if (next > static_cast<__int128>(kSpinBoundSaturated)) {
      return kSpinBoundSaturated;
    }
    const auto next_d = static_cast<Duration>(next);
    if (next_d == w) return w;
    w = next_d;
  }
  return kSpinBoundSaturated;
}

}  // namespace

std::vector<BlockingBreakdown> spinBlocking(const TaskSystem& system,
                                            bool priority_ordered,
                                            BlockingOptions options) {
  return spinBlocking(SystemIndex(system), priority_ordered, options);
}

std::vector<BlockingBreakdown> spinBlocking(const SystemIndex& index,
                                            bool priority_ordered,
                                            BlockingOptions options) {
  using enum BlockingFactor;
  const TaskSystem& system = index.system();
  const std::vector<Task>& tasks = system.tasks();
  std::vector<BlockingBreakdown> out(tasks.size());
  // Per task: the longest non-preemptive window it can open, i.e. the
  // max over its requests of (spin wait + section).
  std::vector<Duration> window(tasks.size(), 0);

  // S: every request busy-waits at most its per-request bound, which
  // depends only on the (task, semaphore) pair — one wait per user.
  std::vector<Duration> per_proc(
      static_cast<std::size_t>(system.processorCount()), 0);
  for (const ResourceInfo& r : system.resources()) {
    const std::span<const ResourceUser> users = index.users(r.id);
    // FIFO (MSRP): one earlier request per remote processor hosting users
    // of r — requests are non-preemptive, so at most one is in flight per
    // processor, and FIFO admits no later overtakers. The wait of a user
    // on P is the sum of the per-processor maxima minus P's own.
    Duration all_procs = 0;
    if (!priority_ordered) {
      std::fill(per_proc.begin(), per_proc.end(), 0);
      for (const ResourceUser& u : users) {
        auto& slot = per_proc[static_cast<std::size_t>(u.processor.value())];
        slot = std::max(slot, u.max_cs);
      }
      for (Duration d : per_proc) all_procs += d;
    }
    for (const ResourceUser& u : users) {
      const Duration wait =
          priority_ordered
              ? priorityOrderedWait(users, u)
              : all_procs -
                    per_proc[static_cast<std::size_t>(u.processor.value())];
      const auto t = static_cast<std::size_t>(u.task.value());
      out[t][kSpinWait] += u.requests * wait;
      window[t] = std::max(window[t], wait + u.max_cs);
    }
  }

  for (const Task& ti : tasks) {
    BlockingBreakdown& b = out[ti.id.value()];

    // A: at each of the (1 + voluntary suspensions) points where the job
    // becomes ready, at most one lower-priority local task can occupy the
    // processor non-preemptively — for its own spin plus its section.
    // Preemption by a higher task opens no new window: once that task
    // finishes, we are dispatched before any lower task can start one.
    Duration worst = 0;
    for (TaskId tl : index.lowerLocal(ti)) {
      worst = std::max(worst, window[static_cast<std::size_t>(tl.value())]);
    }
    const int points = 1 + index.profile(ti.id).voluntary_suspensions;
    b[kArrivalBlocking] = points * worst;

    // Deferred execution: a suspending higher-priority local task can
    // compress one extra burst — its computation plus its spin occupancy
    // — into our busy period (same charge the MPCP/DPCP analyses make).
    if (options.include_deferred_execution) {
      for (TaskId th : index.higherLocal(ti)) {
        if (index.profile(th).voluntary_suspensions == 0) continue;
        b[kDeferredExecution] +=
            system.task(th).wcet +
            out[static_cast<std::size_t>(th.value())][kSpinWait];
      }
    }
  }
  return out;
}

std::vector<Duration> spinInflation(
    const std::vector<BlockingBreakdown>& breakdowns) {
  std::vector<Duration> out;
  out.reserve(breakdowns.size());
  for (const BlockingBreakdown& b : breakdowns) {
    out.push_back(b[BlockingFactor::kSpinWait]);
  }
  return out;
}

}  // namespace mpcp
