#include "protocols/pcp.h"

#include "common/check.h"
#include "common/strf.h"

namespace mpcp {

PcpProtocol::PcpProtocol(const TaskSystem& system,
                         const PriorityTables& tables)
    : local_(system, tables) {
  if (system.hasGlobalResources()) {
    throw ConfigError(
        "PcpProtocol is a uniprocessor protocol: the task system has global "
        "resources; use mpcp or dpcp");
  }
}

void PcpProtocol::attach(Engine& engine) {
  SyncProtocol::attach(engine);
  local_.attach(engine);
}

LockOutcome PcpProtocol::onLock(Job& j, ResourceId r) {
  return local_.onLock(j, r);
}

void PcpProtocol::onUnlock(Job& j, ResourceId r) { local_.onUnlock(j, r); }

void PcpProtocol::onJobFinished(Job& j) { local_.onJobFinished(j); }

}  // namespace mpcp
