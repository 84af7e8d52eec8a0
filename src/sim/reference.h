// Independent tick-stepped reference implementation of the shared-memory
// locking protocols — the differential-testing oracle for the
// event-driven engine.
//
// Deliberately structured as differently as possible from Engine + the
// protocol classes so mechanical bugs cannot hide in both:
//   * advances one tick at a time (no event queue, no settle cascade);
//   * recomputes PCP inheritance and the spin elevation declaratively
//     every tick instead of maintaining them incrementally on events;
//   * evaluates the ceiling test at selection time rather than parking
//     and waking blocked jobs.
// Only the *rules* are shared, which is exactly what a differential test
// should hold constant. The supported protocols are two wait modes of
// one family: under mpcp and dpcp a blocked job suspends (Section 5's
// rules; dpcp runs each gcs on its semaphore's synchronization processor
// instead of the host); under spin-fifo / spin-prio it busy-waits
// non-preemptively.
//
// O(horizon x jobs) instead of the engine's event-driven complexity, so
// use it on small horizons.
#pragma once

#include <vector>

#include "common/types.h"
#include "core/protocol_kind.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "obs/counters.h"

namespace mpcp {

struct ReferenceJobResult {
  JobId id;
  Time release = 0;
  Time finish = -1;  ///< -1: unfinished at the horizon
};

struct ReferenceResult {
  std::vector<ReferenceJobResult> jobs;  ///< release order per task
  bool any_deadline_miss = false;
  /// Lock-path counters bumped at the same semantic sites as the engine
  /// (grant, park, handoff, agent migration), so acquisition/wait/
  /// handoff/migration totals are directly comparable across the two
  /// implementations.
  obs::Counters counters;
};

/// Simulates `system` under `kind`'s rules for `horizon` ticks.
///   * kMpcp: the full op set (compute/lock/unlock/suspend); requires
///     non-nested global sections like the mpcp protocol. Waiters
///     suspend; global queues grant by base priority.
///   * kDpcp: as kMpcp, but a granted or handed-off job runs its gcs on
///     the semaphore's sync_processor at ceiling(S), leaving its host
///     free; a grant restamps the job's FCFS arrival, the return home
///     keeps the stamp. A nest involving a global section is a
///     ConfigError.
///   * kSpinFifo / kSpinPrio: every semaphore is a spin lock; waiters
///     busy-wait at the non-preemptive band; grants go in arrival /
///     base-priority order. Nested sections are a ConfigError, exactly
///     like SpinProtocol.
/// Any other kind is a ConfigError.
///
/// `plan` (optional, not owned) mirrors the engine's fault injection for
/// the mirrorable fault classes (WCET/cs overrun, stuck holder, release
/// jitter — NOT processor stalls; see FaultPlan::mirrorable()), so
/// differential oracles stay meaningful under injected faults.
/// `holder_watchdog` > 0 force-releases a global semaphore whose holder
/// has kept it that long, handing off to the highest-priority waiter —
/// the reference half of the engine's watchdog containment policy.
/// Faults and the watchdog are mirrored for kMpcp only; a non-empty plan
/// or a watchdog with any other kind is a ConfigError.
[[nodiscard]] ReferenceResult simulateReference(
    ProtocolKind kind, const TaskSystem& system, Time horizon,
    const fault::FaultPlan* plan = nullptr, Duration holder_watchdog = 0);

}  // namespace mpcp
