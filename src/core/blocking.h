// The named blocking analyses of the two pure ceiling protocols — the
// shared-memory protocol's Section 5.1 factors F1–F5 and the
// message-based baseline's D1–D4 — as projections of the one formula,
// hybridBlocking under allShared / allMessage. Every factor is derived in
// core/hybrid_blocking.h.
#pragma once

#include <vector>

#include "analysis/ceilings.h"
#include "analysis/system_index.h"
#include "common/types.h"
#include "core/hybrid_blocking.h"
#include "model/task_system.h"

namespace mpcp {

/// Per-factor decomposition of the worst-case blocking bound of one task
/// under the shared-memory protocol.
struct BlockingBreakdown {
  Duration local_lower_cs = 0;      ///< F1
  Duration lower_gcs_queue = 0;     ///< F2
  Duration higher_gcs_remote = 0;   ///< F3
  Duration blocking_proc_gcs = 0;   ///< F4
  Duration local_lower_gcs = 0;     ///< F5
  Duration deferred_execution = 0;  ///< penalty (0 when disabled)

  [[nodiscard]] Duration total() const {
    return local_lower_cs + lower_gcs_queue + higher_gcs_remote +
           blocking_proc_gcs + local_lower_gcs + deferred_execution;
  }
  /// The suspension-driven part (F2+F3+F4): how long the job can sit in
  /// global wait queues. Used as release jitter in the response-time
  /// analysis of higher-priority tasks.
  [[nodiscard]] Duration remoteSuspension() const {
    return lower_gcs_queue + higher_gcs_remote + blocking_proc_gcs;
  }
};

/// Computes the Section 5.1 bounds for every task of a system running the
/// shared-memory protocol: hybridBlocking under allShared. Requires
/// non-nested global sections (same precondition as the protocol).
class MpcpBlockingAnalysis {
 public:
  MpcpBlockingAnalysis(const TaskSystem& system, const PriorityTables& tables,
                       BlockingOptions options = {});
  MpcpBlockingAnalysis(const SystemIndex& index, const PriorityTables& tables,
                       BlockingOptions options = {});

  [[nodiscard]] const BlockingBreakdown& blocking(TaskId t) const;
  [[nodiscard]] const std::vector<BlockingBreakdown>& all() const {
    return breakdowns_;
  }

 private:
  std::vector<BlockingBreakdown> breakdowns_;
};

/// Per-factor decomposition under the message-based protocol.
struct DpcpBlockingBreakdown {
  Duration local_lower_cs = 0;      ///< D1
  Duration lower_gcs_queue = 0;     ///< D2
  Duration agent_interference = 0;  ///< D3 (the hybrid's F3' + D3')
  Duration host_agent_load = 0;     ///< D4
  Duration deferred_execution = 0;

  [[nodiscard]] Duration total() const {
    return local_lower_cs + lower_gcs_queue + agent_interference +
           host_agent_load + deferred_execution;
  }
  [[nodiscard]] Duration remoteSuspension() const {
    return lower_gcs_queue + agent_interference;
  }
};

struct DpcpBlockingOptions {
  bool include_deferred_execution = true;
};

/// Bounds for every task under the message-based protocol (uses
/// ResourceInfo::sync_processor): hybridBlocking under allMessage.
[[nodiscard]] std::vector<DpcpBlockingBreakdown> dpcpBlocking(
    const TaskSystem& system, const PriorityTables& tables,
    DpcpBlockingOptions options = {});
[[nodiscard]] std::vector<DpcpBlockingBreakdown> dpcpBlocking(
    const SystemIndex& index, const PriorityTables& tables,
    DpcpBlockingOptions options = {});

}  // namespace mpcp
