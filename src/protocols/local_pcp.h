// Uniprocessor Priority Ceiling Protocol, instantiated per processor —
// both the standalone PCP protocol and the local-semaphore component of
// the shared-memory protocol (MPCP rule 2) and of DPCP.
//
// Rule (Section 5, step 2): a job J on processor p may lock local
// semaphore S iff J's priority exceeds the highest priority ceiling among
// local semaphores currently locked by *other* jobs on p. Otherwise J
// blocks and the holder of that highest-ceiling semaphore inherits J's
// (effective) priority until release. Inheritance is transitive.
//
// Mechanics: a blocked job is parked; every local unlock on p wakes all
// parked jobs on p, which re-run the ceiling test when dispatched (the
// engine's wake-and-retry contract). Blocking conditions only change at
// unlock events, so this is exact, and the priority order of re-dispatch
// guarantees the highest-priority blocked job is served first.
#pragma once

#include <vector>

#include "analysis/ceilings.h"
#include "sim/engine.h"
#include "sim/job.h"

namespace mpcp {

class Engine;

/// PCP state for all processors' local semaphores. Not a SyncProtocol
/// itself — PcpProtocol and HybridProtocol (mpcp, dpcp, hybrid) embed it.
class LocalPcp {
 public:
  LocalPcp(const TaskSystem& system, const PriorityTables& tables);

  void attach(Engine& engine) { engine_ = &engine; }

  /// P(S) for a local semaphore. Parks the job on failure.
  LockOutcome onLock(Job& j, ResourceId r);

  /// V(S) for a local semaphore; wakes parked jobs for retry.
  void onUnlock(Job& j, ResourceId r);

  /// Drops bookkeeping for a finished or torn-down job.
  void onJobFinished(Job& j);

 private:
  struct LockedSem {
    ResourceId resource;
    Job* holder;
    Priority ceiling;
  };
  struct ProcState {
    std::vector<LockedSem> locked;  // local semaphores currently held
    std::vector<Job*> parked;       // jobs blocked by the ceiling test
  };

  /// Highest-ceiling semaphore locked by a job other than `j` on `proc`;
  /// nullptr if none.
  const LockedSem* blockingSem(int proc, const Job& j) const;
  void recomputeInheritance(int proc);

  const TaskSystem* system_;
  const PriorityTables* tables_;
  Engine* engine_ = nullptr;
  std::vector<ProcState> procs_;
  // Scratch buffers (members so the lock/unlock paths stay
  // allocation-free once warmed; never used reentrantly).
  std::vector<Job*> wake_scratch_;
  std::vector<std::pair<Job*, Priority>> old_scratch_;
};

}  // namespace mpcp
