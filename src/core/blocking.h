// Worst-case blocking analysis for the shared-memory protocol —
// Section 5.1's five blocking factors plus the deferred-execution penalty.
//
// For a job J_i of task tau_i bound to processor P_d, with NG_i global
// critical sections per job:
//
//  F1  Local blocking. Each of J_i's suspensions — NG_i global accesses
//      plus any voluntary SuspendOps — plus job start lets a
//      lower-priority local job seize a local semaphore with ceiling
//      >= P_i and block J_i once on resumption (Theorem 1):
//        (suspensionOpportunities + 1) * max{ dur(z) : z local cs of
//        lower-priority local task, ceiling(z) >= P_i }.
//
//  F2  Lower-priority gcs ahead in the queue. Semaphore queues are
//      priority-ordered, so each global access waits for at most one
//      lower-priority holder:
//        sum over J_i's gcs accesses on S of
//          max{ dur(z) : z gcs on S of a lower-priority task *not on P_d* }.
//      (Host-processor lower-priority gcs's are excluded here because F5
//      already accounts for them — the paper notes this overlap removal.)
//
//  F3  Remote preemption penalty. Higher-priority *remote* tasks locking
//      semaphores in GS_i can be served first on every access:
//        sum over remote tau_j, P_j > P_i, of
//          ceil(T_i/T_j) * (total dur of tau_j's gcs's on GS_i).
//      (Host-processor higher-priority gcs's are ordinary preemption and
//      belong to the utilization term, not B_i.)
//
//  F4  Blocking processors. A lower-priority gcs that directly blocks J_i
//      (F2) can itself be preempted by higher-gcs-priority sections on its
//      processor:
//        for each blocking processor P_k and each task tau_j on P_k:
//          ceil(T_i/T_j) * (total dur of tau_j's gcs's whose gcs priority
//          exceeds that of some directly-blocking gcs on P_k),
//      excluding gcs's already counted by F3 (tau_j remote higher-priority
//      on a shared semaphore).
//
//  F5  Lower-priority local gcs's. Gcs's run above P_H, so a lower-
//      priority local job inside a gcs preempts J_i's normal execution:
//        for each lower-priority local tau_l with NG_l > 0:
//          min(suspensionOpportunities_i + 1, 2 * NG_l) * maxGcs(tau_l).
//      The paper's OCR prints "max"; both operands are independently valid
//      upper bounds on the same count (the paper derives NG_i + 1 from
//      outstanding-request repetition and 2*NG_l from at most two
//      interfering instances of tau_l within T_i), so their min is sound
//      and tight. BlockingOptions::paper_literal_factor5 selects the
//      literal "max" reading.
//
//  Deferred execution. A suspending higher-priority local task arrives
//  "compressed" after its suspension, costing lower-priority tasks up to
//  one extra preemption per period (Section 5.1's closing remark, citing
//  [5, 8]); we charge C_j for every suspending higher-priority local task.
//
// B_i = F1 + F2 + F3 + F4 + F5 (+ deferred-execution when enabled), fed
// into Theorem 3's utilization test or the response-time analysis.
#pragma once

#include <vector>

#include "analysis/ceilings.h"
#include "analysis/system_index.h"
#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

struct BlockingOptions {
  /// Use the paper text's literal max(NG_i + 1, 2*NG_l) in F5 instead of
  /// the sound-and-tight min(.) (see header comment).
  bool paper_literal_factor5 = false;
  /// Include the deferred-execution penalty in total().
  bool include_deferred_execution = true;
};

/// Per-factor decomposition of the worst-case blocking bound of one task.
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
/// shared-memory protocol. Requires non-nested global sections (same
/// precondition as MpcpProtocol).
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

}  // namespace mpcp
