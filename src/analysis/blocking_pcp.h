// Uniprocessor PCP blocking bound [10]: a non-suspending job is blocked
// for at most ONE critical section of ONE lower-priority local job, and
// only by sections whose semaphore ceiling reaches its priority:
//   B_i = max{ dur(z) : z cs of tau_l, P_l < P_i, same processor,
//              ceiling(z) >= P_i }.
// Used standalone for uniprocessor systems and as the no-global baseline
// in the comparison benches.
#pragma once

#include <vector>

#include "analysis/blocking_factors.h"
#include "analysis/ceilings.h"
#include "analysis/system_index.h"
#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

/// B_i for every task under per-processor PCP, as F1 alone. Only valid
/// when the system has no global resources (throws ConfigError
/// otherwise).
[[nodiscard]] std::vector<BlockingBreakdown> pcpBlocking(
    const TaskSystem& system, const PriorityTables& tables);
[[nodiscard]] std::vector<BlockingBreakdown> pcpBlocking(
    const SystemIndex& index, const PriorityTables& tables);

}  // namespace mpcp
