// Worst-case blocking bounds for the ceiling-protocol family — the one
// formula behind the mpcp, dpcp and hybrid analyses. Section 5.1's five
// blocking factors cover shared-memory-policy resources, the
// message-based baseline's agent terms ([8], reconstructed for the
// Section 5.2 comparison) cover message-based ones, and both pay the
// deferred-execution penalty. The pure policies' analyses are
// hybridBlocking under allShared / allMessage, filling the same
// BlockingBreakdown (analysis/blocking_factors.h):
//   mpcp (allShared):  F1..F5 = F1, F2', F3', F4', F5'   (D3' = D4' = 0)
//   dpcp (allMessage): D1 = F1, D2 = F2', D3 = F3' + D3', D4 = D4'
//                      (F4' = F5' = 0)
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
//  F2' Lower-priority gcs ahead in the queue. Semaphore queues are
//      priority-ordered, so each global access waits for at most one
//      lower-priority holder:
//        sum over J_i's gcs accesses on S of
//          max{ dur(z) : z gcs on S of a lower-priority task }.
//      On a shared-memory S only tasks *not on P_d* count: F5' already
//      accounts for host-processor lower-priority gcs's (the paper notes
//      this overlap removal). On a message-based S every lower-priority
//      user counts (DPCP's D2): its section runs on the sync processor.
//
//  F3' Remote preemption penalty. Higher-priority tasks locking
//      semaphores in GS_i can be served first on every access:
//        sum over tau_j, P_j > P_i, of
//          ceil(T_i/T_j) * (total dur of tau_j's gcs's on GS_i),
//      excluding host-processor tasks' gcs's on shared-memory semaphores
//      (ordinary preemption, in the utilization term, not B_i). On
//      message-based semaphores this is DPCP D3's same-resource part:
//      re-entries by higher-priority tasks.
//
//  F4' Blocking processors. A lower-priority shared-memory gcs that
//      directly blocks J_i (F2') can itself be preempted by sections that
//      *execute* on its processor with a higher elevation:
//        for each blocking processor P_k and each task tau_j on P_k:
//          ceil(T_i/T_j) * (total dur of tau_j's gcs's whose elevation
//          exceeds that of some directly-blocking gcs on P_k),
//      where a shared-memory gcs executes on its host at gcsPriority and
//      a message-based one on its sync processor at the ceiling;
//      excluding gcs's already counted by F3' (tau_j higher-priority on a
//      semaphore in GS_i).
//
//  F5' Lower-priority local shared-memory gcs's. Gcs's run above P_H, so
//      a lower-priority local job inside a gcs preempts J_i's normal
//      execution:
//        for each lower-priority local tau_l with NG_l > 0 shared-memory
//        gcs's, min(suspensionOpportunities_i + 1, 2 * NG_l) *
//        maxGcs(tau_l).
//      The paper's OCR prints "max"; both operands are independently valid
//      upper bounds on the same count (the paper derives NG_i + 1 from
//      outstanding-request repetition and 2*NG_l from at most two
//      interfering instances of tau_l within T_i), so their min is sound
//      and tight. BlockingOptions::paper_literal_factor5 selects the
//      literal "max" reading.
//
//  D3' Agent interference — zero unless J_i locks a message-based
//      resource. Its agents run on sync processors at their resources'
//      ceilings, and other tasks' sections delay them, each charged
//      ceil(T_i/T_j) * (total dur of tau_j's gcs's on the resource):
//      (a) lower-priority users of a message-based resource S in GS_i,
//      when ceiling(S) reaches the lowest ceiling among the *other*
//      resources J_i uses on S's sync processor — they delay J_i's
//      agents for those, a channel the one-holder-per-access charge of
//      F2' does not cover (higher-priority users are charged by F3');
//      (b) every user of a message-based resource outside GS_i hosted on
//      a sync processor J_i visits, at a ceiling reaching the lowest
//      ceiling J_i uses there (lower-ceiling agents are simply preempted
//      by J_i's);
//      (c) shared-memory gcs's executing on a host that doubles as a sync
//      processor J_i visits — at gcsPriority, above every agent ceiling —
//      unless they are plain preemption (host-local higher-priority) or
//      charged by F3'.
//      (b) is DPCP's cost of funnelling gcs's through dedicated
//      processors; it shrinks when resources are spread across more sync
//      processors — the knob Section 5.2 discusses.
//
//  D4' Remote-agent load on the host. Message-based gcs's of *other*
//      tasks whose sync processor is P_d execute there in the ceiling
//      band and preempt J_i's normal execution: ceil(T_i/T_j) * dur per
//      such gcs (gcs's of local higher-priority tasks are inside their
//      C_j and excluded). Zero when sync processors host no application
//      tasks.
//
//  Deferred execution. A suspending higher-priority local task arrives
//  "compressed" after its suspension, costing lower-priority tasks up to
//  one extra preemption per period (Section 5.1's closing remark, citing
//  [5, 8]); we charge C_j for every suspending higher-priority local task.
//
// B_i = F1 + F2' + F3' + F4' + F5' + D3' + D4' (+ deferred execution when
// enabled), fed into Theorem 3's utilization test or the response-time
// analysis. This is an upper bound: D3' charges the full window rather
// than only the accesses, matching the conservative flavour of Section
// 5.1. The hybrid ablation bench checks that moving a hot resource to
// message mode trades F5'/F2' for D3'/D4'.
#pragma once

#include <vector>

#include "analysis/blocking_factors.h"
#include "analysis/ceilings.h"
#include "analysis/system_index.h"
#include "core/hybrid_protocol.h"
#include "model/task_system.h"

namespace mpcp {

[[nodiscard]] std::vector<BlockingBreakdown> hybridBlocking(
    const TaskSystem& system, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options = {});
[[nodiscard]] std::vector<BlockingBreakdown> hybridBlocking(
    const SystemIndex& index, const PriorityTables& tables,
    const HybridPolicy& policy, BlockingOptions options = {});

/// The shared-memory protocol's Section 5.1 bounds: hybridBlocking under
/// allShared. Requires non-nested global sections (same precondition as
/// the protocol).
class MpcpBlockingAnalysis {
 public:
  MpcpBlockingAnalysis(const TaskSystem& system, const PriorityTables& tables,
                       BlockingOptions options = {});

  [[nodiscard]] const BlockingBreakdown& blocking(TaskId t) const;
  [[nodiscard]] const std::vector<BlockingBreakdown>& all() const {
    return breakdowns_;
  }

 private:
  std::vector<BlockingBreakdown> breakdowns_;
};

/// The message-based protocol's bounds (uses ResourceInfo::sync_processor):
/// hybridBlocking under allMessage.
[[nodiscard]] std::vector<BlockingBreakdown> dpcpBlocking(
    const TaskSystem& system, const PriorityTables& tables,
    BlockingOptions options = {});

}  // namespace mpcp
