// Per-task critical-section profiles — the raw quantities the blocking
// analyses consume: outermost global sections (the paper's NG_i counter
// and gcs durations), outermost local sections, and the set GS_i of
// global semaphores a task uses.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

/// One outermost critical section: which semaphore and how long the job
/// computes while holding it (nested inner sections included).
struct SectionUse {
  ResourceId resource;
  Duration duration = 0;
};

struct TaskProfile {
  std::vector<SectionUse> global_sections;  ///< outermost gcs's, in body order
  std::vector<SectionUse> local_sections;   ///< outermost local cs's
  /// GS_i: globals used at any nesting depth, sorted, no duplicates.
  std::vector<ResourceId> global_resources;
  int voluntary_suspensions = 0;            ///< number of SuspendOps
  Duration total_suspension = 0;            ///< sum of SuspendOp durations

  /// NG_i: number of global critical sections the job enters.
  [[nodiscard]] int ng() const {
    return static_cast<int>(global_sections.size());
  }
  /// Suspension opportunities for Theorem 1: global accesses plus
  /// voluntary suspensions.
  [[nodiscard]] int suspensionOpportunities() const {
    return ng() + voluntary_suspensions;
  }
  /// True iff `r` is in GS_i.
  [[nodiscard]] bool usesGlobal(ResourceId r) const {
    return std::binary_search(global_resources.begin(),
                              global_resources.end(), r);
  }
  /// Longest gcs duration, 0 if none.
  [[nodiscard]] Duration maxGcs() const {
    Duration m = 0;
    for (const SectionUse& s : global_sections) m = std::max(m, s.duration);
    return m;
  }
};

/// Profiles for all tasks, indexed by TaskId.
[[nodiscard]] std::vector<TaskProfile> buildProfiles(const TaskSystem& system);

}  // namespace mpcp
