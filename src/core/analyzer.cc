#include "core/analyzer.h"

#include "analysis/blocking_pcp.h"
#include "analysis/system_index.h"
#include "common/check.h"
#include "common/strf.h"
#include "core/protocol_registry.h"

namespace mpcp {

namespace {

/// A job's own voluntary suspension delays it exactly like blocking (it
/// is not executing and not preempted), and defers its remaining
/// computation (jitter for lower-priority neighbours). Fold it into both
/// vectors.
void addSelfSuspension(const SystemIndex& index,
                       std::vector<Duration>& blocking,
                       std::vector<Duration>& jitter) {
  const std::vector<TaskProfile>& profiles = index.profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    blocking[i] += profiles[i].total_suspension;
    jitter[i] += profiles[i].total_suspension;
  }
}

/// B_i and remote-suspension jitter of every task, in TaskId order.
template <typename Breakdown>
void foldBreakdowns(const std::vector<Breakdown>& all, ProtocolAnalysis& out) {
  out.blocking.reserve(all.size());
  out.jitter.reserve(all.size());
  for (const Breakdown& b : all) {
    out.blocking.push_back(b.total());
    out.jitter.push_back(b.remoteSuspension());
  }
}

ProtocolAnalysis analyzeHybrid(const SystemIndex& index,
                               const HybridPolicy& policy,
                               const BlockingOptions& options,
                               ProtocolKind kind) {
  const TaskSystem& system = index.system();
  const PriorityTables tables(system);
  ProtocolAnalysis out;
  out.kind = kind;
  foldBreakdowns(hybridBlocking(index, tables, policy, options), out);
  addSelfSuspension(index, out.blocking, out.jitter);
  out.report = analyzeSchedulability(system, out.blocking, out.jitter);
  return out;
}

}  // namespace

ProtocolAnalysis analyzeUnder(ProtocolKind kind, const TaskSystem& system,
                              const AnalyzerOptions& options) {
  const SystemIndex index(system);
  switch (kind) {
    case ProtocolKind::kMpcp:
      return analyzeHybrid(index, HybridPolicy::allShared(system),
                           options.mpcp, kind);
    case ProtocolKind::kDpcp:
      return analyzeHybrid(
          index, HybridPolicy::allMessage(system),
          {.include_deferred_execution =
               options.dpcp.include_deferred_execution},
          kind);
    case ProtocolKind::kHybrid:
      return analyzeHybrid(index, defaultHybridPolicy(system), options.mpcp,
                           kind);
    default:
      break;
  }

  const PriorityTables tables(system);
  ProtocolAnalysis out;
  out.kind = kind;
  // Spin protocols: the busy-wait occupies the processor, so it must be
  // charged to lower-priority neighbours as inflated interference, not
  // just to the task's own B_i (see analyzeSchedulability).
  std::vector<Duration> inflation;

  switch (kind) {
    case ProtocolKind::kPcp: {
      out.blocking = pcpBlocking(index, tables);
      out.jitter.assign(out.blocking.size(), 0);  // PCP jobs never suspend
      break;
    }
    case ProtocolKind::kSpinFifo:
    case ProtocolKind::kSpinPrio: {
      const auto breakdowns = spinBlocking(
          index, kind == ProtocolKind::kSpinPrio, options.spin);
      foldBreakdowns(breakdowns, out);  // jitter always 0: no suspension
      inflation = spinInflation(breakdowns);
      break;
    }
    default:
      throw ConfigError(strf(
          "analyzeUnder: no bounded-blocking analysis exists for protocol '",
          toString(kind),
          "' — unbounded priority inversion (Section 3.3)"));
  }

  addSelfSuspension(index, out.blocking, out.jitter);
  out.report =
      analyzeSchedulability(system, out.blocking, out.jitter, inflation);
  return out;
}

ProtocolAnalysis analyzeHybrid(const TaskSystem& system,
                               const HybridPolicy& policy,
                               const AnalyzerOptions& options) {
  return analyzeHybrid(SystemIndex(system), policy, options.mpcp,
                       ProtocolKind::kHybrid);
}

}  // namespace mpcp
