// Worst-case blocking bounds for the message-based (distributed) priority
// ceiling protocol — the paper's [8] baseline, reconstructed in our
// framework for the Section 5.2 comparison. The reconstruction is
// deliberately structured to mirror the MPCP factors so the two bounds are
// comparable term by term:
//
//  D1  Local blocking — identical to MPCP F1: each suspension opportunity
//      (global access or voluntary SuspendOp) plus job start admits one
//      lower-priority local critical section with ceiling >= P_i.
//
//  D2  Queue-head wait — per global access on S, at most one gcs of a
//      lower-priority task already holds S (priority-ordered queues).
//
//  D3  Agent interference — all gcs's execute on sync processors at their
//      resources' global ceilings. Two components, ceil(T_i/T_j)-scaled:
//      (a) same-resource re-entries by *higher-priority* tasks (the
//      analogue of MPCP's F3; lower-priority same-resource holders are
//      D2's one-per-access charge), and (b) gcs's on *other* resources
//      hosted on a sync processor J_i visits whose ceiling reaches the
//      lowest ceiling J_i uses there (lower-ceiling agents are simply
//      preempted by J_i's agent). Component (b) is the DPCP's cost of
//      funnelling gcs's through dedicated processors, and it shrinks when
//      resources are spread across more sync processors — the knob
//      Section 5.2 discusses.
//
//  D4  Remote-agent load on the host — gcs's of *other* tasks whose sync
//      processor is J_i's own host processor execute there in the ceiling
//      band and preempt J_i's normal execution: ceil(T_i/T_j) * dur per
//      such gcs (gcs's of local higher-priority tasks are inside their C_j
//      and excluded). Zero when sync processors host no application tasks.
//
//  Deferred-execution penalty — same form as MPCP: suspending
//  higher-priority local tasks each charge one extra C_j.
//
// This is an upper bound: D3 charges the full window rather than only the
// accesses, matching the conservative flavour of Section 5.1.
#pragma once

#include <vector>

#include "analysis/ceilings.h"
#include "analysis/system_index.h"
#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

struct DpcpBlockingBreakdown {
  Duration local_lower_cs = 0;      ///< D1
  Duration lower_gcs_queue = 0;     ///< D2
  Duration agent_interference = 0;  ///< D3
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

/// Bounds for every task under DPCP (uses ResourceInfo::sync_processor).
[[nodiscard]] std::vector<DpcpBlockingBreakdown> dpcpBlocking(
    const TaskSystem& system, const PriorityTables& tables,
    DpcpBlockingOptions options = {});
[[nodiscard]] std::vector<DpcpBlockingBreakdown> dpcpBlocking(
    const SystemIndex& index, const PriorityTables& tables,
    DpcpBlockingOptions options = {});

}  // namespace mpcp
