#include "analysis/blocking_pcp.h"

#include "common/check.h"

namespace mpcp {

std::vector<BlockingBreakdown> pcpBlocking(const TaskSystem& system,
                                           const PriorityTables& tables) {
  return pcpBlocking(SystemIndex(system), tables);
}

std::vector<BlockingBreakdown> pcpBlocking(const SystemIndex& index,
                                           const PriorityTables& tables) {
  const TaskSystem& system = index.system();
  if (system.hasGlobalResources()) {
    throw ConfigError(
        "pcpBlocking: PCP is a uniprocessor protocol; the system has global "
        "resources");
  }
  std::vector<BlockingBreakdown> out(system.tasks().size());
  for (const Task& ti : system.tasks()) {
    out[static_cast<std::size_t>(ti.id.value())]
       [BlockingFactor::kLocalLowerCs] = index.maxLowerLocalCs(ti, tables);
  }
  return out;
}

}  // namespace mpcp
