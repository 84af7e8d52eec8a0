// End-to-end schedulability pipeline: task system -> protocol-specific
// blocking bounds -> Theorem 3 / RTA verdicts. This is the API a system
// designer calls to answer "will this configuration meet its deadlines
// under protocol X?".
#pragma once

#include <vector>

#include "analysis/blocking_factors.h"
#include "analysis/blocking_spin.h"
#include "analysis/schedulability.h"
#include "core/hybrid_blocking.h"
#include "core/protocol_factory.h"
#include "model/task_system.h"

namespace mpcp {

/// Everything the analysis produced for one (system, protocol) pair.
struct ProtocolAnalysis {
  ProtocolKind kind = ProtocolKind::kMpcp;
  /// Per task, in TaskId order: B_i's factors before self-suspension.
  /// blocking[i] = factors[i].total() + the task's self-suspension, and
  /// jitter[i] = factors[i].remoteSuspension() + the same.
  std::vector<BlockingBreakdown> factors;
  std::vector<Duration> blocking;  ///< B_i per task
  std::vector<Duration> jitter;    ///< remote-suspension jitter per task
  SchedulabilityReport report;     ///< Theorem 3 + RTA verdicts
};

/// Supported kinds: kPcp (no globals), kMpcp, kDpcp, kHybrid (under its
/// canonical policy), kSpinFifo, kSpinPrio. Throws ConfigError for
/// protocols with no bounded-blocking analysis (none/PIP on
/// multiprocessors — the point of the paper is that no bound exists).
[[nodiscard]] ProtocolAnalysis analyzeUnder(ProtocolKind kind,
                                            const TaskSystem& system,
                                            const BlockingOptions& options = {});

/// Analysis for the hybrid protocol (the conclusion's mixed variant):
/// per-resource shared-memory/message-based policies. Tagged kHybrid.
[[nodiscard]] ProtocolAnalysis analyzeHybrid(const TaskSystem& system,
                                             const HybridPolicy& policy,
                                             const BlockingOptions& options = {});

}  // namespace mpcp
