// End-to-end schedulability pipeline: task system -> protocol-specific
// blocking bounds -> Theorem 3 / RTA verdicts. This is the API a system
// designer calls to answer "will this configuration meet its deadlines
// under protocol X?".
#pragma once

#include <vector>

#include "analysis/blocking_spin.h"
#include "analysis/schedulability.h"
#include "core/blocking.h"
#include "core/hybrid_blocking.h"
#include "core/protocol_factory.h"
#include "model/task_system.h"

namespace mpcp {

struct AnalyzerOptions {
  BlockingOptions mpcp;       ///< MPCP (and hybrid) factor options
  DpcpBlockingOptions dpcp;   ///< DPCP factor options
  SpinBlockingOptions spin;   ///< spin-fifo / spin-prio factor options
};

/// Everything the analysis produced for one (system, protocol) pair.
struct ProtocolAnalysis {
  ProtocolKind kind = ProtocolKind::kMpcp;
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
                                            const AnalyzerOptions& options = {});

/// Analysis for the hybrid protocol (the conclusion's mixed variant):
/// per-resource shared-memory/message-based policies. Tagged kHybrid.
[[nodiscard]] ProtocolAnalysis analyzeHybrid(const TaskSystem& system,
                                             const HybridPolicy& policy,
                                             const AnalyzerOptions& options = {});

}  // namespace mpcp
