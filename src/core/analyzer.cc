#include "core/analyzer.h"

#include <span>
#include <utility>

#include "analysis/blocking_pcp.h"
#include "analysis/system_index.h"
#include "common/check.h"
#include "common/strf.h"
#include "core/protocol_registry.h"

namespace mpcp {

namespace {

/// Keeps `factors` and derives B_i and the jitter from them. A job's own
/// voluntary suspension delays it exactly like blocking (it is not
/// executing and not preempted), and defers its remaining computation
/// (jitter for lower-priority neighbours), so it is folded into both.
ProtocolAnalysis fold(ProtocolKind kind, const SystemIndex& index,
                      std::vector<BlockingBreakdown> factors,
                      std::span<const Duration> inflation = {}) {
  ProtocolAnalysis out;
  out.kind = kind;
  out.factors = std::move(factors);
  const std::vector<TaskProfile>& profiles = index.profiles();
  out.blocking.reserve(profiles.size());
  out.jitter.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Duration suspension = profiles[i].total_suspension;
    out.blocking.push_back(out.factors[i].total() + suspension);
    out.jitter.push_back(out.factors[i].remoteSuspension() + suspension);
  }
  out.report = analyzeSchedulability(index.system(), out.blocking,
                                     out.jitter, inflation);
  return out;
}

}  // namespace

ProtocolAnalysis analyzeUnder(ProtocolKind kind, const TaskSystem& system,
                              const BlockingOptions& options) {
  const SystemIndex index(system);
  const PriorityTables tables(system);
  switch (kind) {
    case ProtocolKind::kPcp:
      return fold(kind, index, pcpBlocking(index, tables));
    case ProtocolKind::kMpcp:
      return fold(kind, index,
                  hybridBlocking(index, tables,
                                 HybridPolicy::allShared(system), options));
    case ProtocolKind::kDpcp:
      return fold(kind, index,
                  hybridBlocking(index, tables,
                                 HybridPolicy::allMessage(system), options));
    case ProtocolKind::kHybrid:
      return fold(kind, index,
                  hybridBlocking(index, tables, defaultHybridPolicy(system),
                                 options));
    case ProtocolKind::kSpinFifo:
    case ProtocolKind::kSpinPrio: {
      // The busy-wait occupies the processor, so it must be charged to
      // lower-priority neighbours as inflated interference, not just to
      // the task's own B_i (see analyzeSchedulability).
      auto factors =
          spinBlocking(index, kind == ProtocolKind::kSpinPrio, options);
      const std::vector<Duration> inflation = spinInflation(factors);
      return fold(kind, index, std::move(factors), inflation);
    }
    default:
      throw ConfigError(strf(
          "analyzeUnder: no bounded-blocking analysis exists for protocol '",
          toString(kind),
          "' — unbounded priority inversion (Section 3.3)"));
  }
}

ProtocolAnalysis analyzeHybrid(const TaskSystem& system,
                               const HybridPolicy& policy,
                               const BlockingOptions& options) {
  const SystemIndex index(system);
  return fold(ProtocolKind::kHybrid, index,
              hybridBlocking(index, PriorityTables(system), policy, options));
}

}  // namespace mpcp
