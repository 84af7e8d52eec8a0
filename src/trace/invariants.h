// Post-hoc invariant checkers over simulation traces.
//
// These audit the protocol implementations against the paper's claims:
//   * mutual exclusion — a binary semaphore never has two holders;
//   * priority-ordered handoff — V(S) always signals the highest-priority
//     waiter (protocol rule 7 / Section 3.3's secondary goal);
//   * Theorem 2 — a job inside a gcs is never preempted by a job running
//     non-critical-section (or local-cs) code on the same processor.
//
// Checkers return violation descriptions rather than asserting, so tests
// can report all failures at once and benches can audit long runs cheaply.
#pragma once

#include <string>
#include <vector>

#include "analysis/ceilings.h"
#include "model/task_system.h"
#include "sim/result.h"

namespace mpcp {

struct InvariantReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// A binary semaphore is held by at most one job at a time, releases come
/// from the holder, and handoffs originate from the holder.
[[nodiscard]] InvariantReport checkMutualExclusion(const TaskSystem& system,
                                                   const SimResult& result);

/// Every handoff goes to the highest-assigned-priority waiter at that
/// moment. Only meaningful for priority-queued protocols (not kNone/FIFO).
[[nodiscard]] InvariantReport checkPriorityOrderedHandoff(
    const TaskSystem& system, const SimResult& result);

/// Theorem 2: while some job is inside a gcs on processor p, p never runs
/// another job's non-gcs code. Valid for non-nested global sections
/// (a nested-waiting gcs holder would be a false positive).
[[nodiscard]] InvariantReport checkGcsPreemptionRule(const TaskSystem& system,
                                                     const SimResult& result);

/// Audits rule 3 / Section 4.4: every gcs entry's elevation equals the
/// statically assigned value — gcsPriority(S, host) under the
/// shared-memory protocol (flat global sections only), and under the
/// message-based one the highest ceiling among the job's open global
/// sections, S's included (a nested entry never drops below its outer
/// sections' ceilings).
enum class GcsPriorityRule { kSharedMemory, kMessageBased };
[[nodiscard]] InvariantReport checkGcsPriorityAssignment(
    const TaskSystem& system, const SimResult& result,
    const PriorityTables& tables, GcsPriorityRule rule);

/// Runs all checkers applicable to `system` and concatenates reports.
[[nodiscard]] InvariantReport checkProtocolInvariants(
    const TaskSystem& system, const SimResult& result,
    bool priority_ordered_queues = true);

}  // namespace mpcp
