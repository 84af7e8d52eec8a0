#include "analysis/blocking_pcp.h"

#include "common/check.h"

namespace mpcp {

std::vector<Duration> pcpBlocking(const TaskSystem& system,
                                  const PriorityTables& tables) {
  return pcpBlocking(SystemIndex(system), tables);
}

std::vector<Duration> pcpBlocking(const SystemIndex& index,
                                  const PriorityTables& tables) {
  const TaskSystem& system = index.system();
  if (system.hasGlobalResources()) {
    throw ConfigError(
        "pcpBlocking: PCP is a uniprocessor protocol; the system has global "
        "resources");
  }
  std::vector<Duration> blocking;
  blocking.reserve(system.tasks().size());
  for (const Task& ti : system.tasks()) {
    blocking.push_back(index.maxLowerLocalCs(ti, tables));
  }
  return blocking;
}

}  // namespace mpcp
