// The per-system index every blocking analysis reads: built once per
// analyzeUnder / analyzeHybrid call and shared by the MPCP, DPCP, hybrid,
// spin and PCP bounds and the self-suspension fold.
//
// It holds the per-task profiles (including GS_i), and for each semaphore
// the tasks that use it with their longest outermost section, the total
// of those sections and their count. The per-semaphore lists are sparse —
// one entry per (task, semaphore) pair actually used — so a factor that
// asks "who else locks S?" walks the users of S instead of every task's
// every section, and memory stays linear in the number of sections.
//
// It also owns the two terms the suspension-based analyses share
// verbatim: local blocking (MPCP F1 = DPCP D1) and the deferred-execution
// penalty.
#pragma once

#include <span>
#include <vector>

#include "analysis/ceilings.h"
#include "analysis/profiles.h"
#include "common/check.h"
#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

/// One task's outermost critical sections on one semaphore, folded, with
/// the task fields the factors test, so a walk over the users of a
/// semaphore never looks the task up.
struct ResourceUser {
  TaskId task;
  ProcessorId processor;
  Priority priority;
  Duration period = 0;
  Duration max_cs = 0;        ///< longest outermost section on the semaphore
  Duration total = 0;         ///< sum of those sections
  std::int64_t requests = 0;  ///< how many there are
};

/// Valid while the TaskSystem it was built from lives.
class SystemIndex {
 public:
  explicit SystemIndex(const TaskSystem& system);

  [[nodiscard]] const TaskSystem& system() const { return *system_; }
  [[nodiscard]] const std::vector<TaskProfile>& profiles() const {
    return profiles_;
  }
  [[nodiscard]] const TaskProfile& profile(TaskId t) const {
    MPCP_DCHECK(t.valid() && static_cast<std::size_t>(t.value()) <
                                 profiles_.size(),
                "SystemIndex::profile(): unknown task " << t);
    return profiles_[static_cast<std::size_t>(t.value())];
  }
  /// Users of `r` through outermost sections, in TaskId order.
  [[nodiscard]] std::span<const ResourceUser> users(ResourceId r) const {
    MPCP_DCHECK(r.valid() && static_cast<std::size_t>(r.value()) <
                                 users_.size(),
                "SystemIndex::users(): unknown resource " << r);
    return users_[static_cast<std::size_t>(r.value())];
  }
  /// Global semaphores, in id order.
  [[nodiscard]] const std::vector<ResourceId>& globals() const {
    return globals_;
  }
  /// Tasks on t's processor with higher / lower priority than t.
  [[nodiscard]] std::span<const TaskId> higherLocal(const Task& t) const;
  [[nodiscard]] std::span<const TaskId> lowerLocal(const Task& t) const;

  /// Longest local section of a lower-priority local task whose ceiling
  /// reaches P_i: the uniprocessor PCP bound, and F1's per-window charge.
  [[nodiscard]] Duration maxLowerLocalCs(const Task& ti,
                                         const PriorityTables& tables) const;
  /// F1 / D1: (suspension opportunities + 1) * maxLowerLocalCs.
  [[nodiscard]] Duration localBlocking(const Task& ti,
                                       const PriorityTables& tables) const;
  /// Deferred-execution penalty of the suspension-based protocols: C_j of
  /// every higher-priority local task that can suspend.
  [[nodiscard]] Duration deferredExecution(const Task& ti) const;

 private:
  const TaskSystem* system_;
  std::vector<TaskProfile> profiles_;
  std::vector<std::vector<ResourceUser>> users_;  // [resource]
  std::vector<ResourceId> globals_;
  std::vector<std::size_t> rank_;  // [task]: position in tasksOn(processor)
};

}  // namespace mpcp
