// Worst-case blocking bounds for the hybrid protocol, built by combining
// the MPCP factors (Section 5.1) for shared-memory-policy resources with
// the DPCP-style agent terms for message-based-policy resources:
//
//   F1   local blocking                          (as MPCP F1)
//   F2'  queue-head wait per access: shared-mode semaphores charge the
//        longest lower-priority *remote* gcs (host-local ones are F5's),
//        message-mode semaphores the longest lower-priority gcs anywhere
//   F3'  higher-priority interference on shared semaphores, excluding
//        host-local tasks' gcs's on shared-memory-mode semaphores (those
//        are ordinary preemption, as in MPCP F3)
//   F4'  blocking-processor preemption of shared-mode direct blockers by
//        sections that *execute* on that processor with higher elevation
//   D3'  agent interference on each sync processor the task visits
//        (message-mode sections only)
//   D4'  message-mode gcs's of other tasks whose sync processor is the
//        task's own host
//   deferred-execution penalty (same form as MPCP/DPCP)
//
// Pure policies recover the pure analyses in structure; the ablation
// bench checks hybridBlocking(allShared) tracks the MPCP bound and that
// moving a hot resource to message mode trades F5/F2' for D3'/D4'.
#pragma once

#include <vector>

#include "analysis/ceilings.h"
#include "core/blocking.h"
#include "core/hybrid_protocol.h"
#include "model/task_system.h"

namespace mpcp {

struct HybridBlockingBreakdown {
  Duration local_lower_cs = 0;      ///< F1
  Duration lower_gcs_queue = 0;     ///< F2'
  Duration higher_gcs_remote = 0;   ///< F3'
  Duration blocking_proc_gcs = 0;   ///< F4'
  Duration local_lower_gcs = 0;     ///< F5' (shared-mode sections only)
  Duration agent_interference = 0;  ///< D3'
  Duration host_agent_load = 0;     ///< D4'
  Duration deferred_execution = 0;

  [[nodiscard]] Duration total() const {
    return local_lower_cs + lower_gcs_queue + higher_gcs_remote +
           blocking_proc_gcs + local_lower_gcs + agent_interference +
           host_agent_load + deferred_execution;
  }
  [[nodiscard]] Duration remoteSuspension() const {
    return lower_gcs_queue + higher_gcs_remote + blocking_proc_gcs +
           agent_interference;
  }
};

[[nodiscard]] std::vector<HybridBlockingBreakdown> hybridBlocking(
    const TaskSystem& system, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options = {});
[[nodiscard]] std::vector<HybridBlockingBreakdown> hybridBlocking(
    const SystemIndex& index, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options = {});

}  // namespace mpcp
