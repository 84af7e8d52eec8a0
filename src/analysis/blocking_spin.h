// Worst-case blocking bounds for the non-preemptive spin protocols
// (spin-fifo / spin-prio), filling the same BlockingBreakdown as the
// MPCP/DPCP analyses (analysis/blocking_factors.h), so the shoot-out
// experiment can compare term by term:
//
//  S   Spin wait — per request on semaphore S, the busy-wait until the
//      grant. FIFO (MSRP): at most one earlier request per *remote*
//      processor hosting users of S (requests are non-preemptive, so a
//      processor has at most one in flight), giving the classic sum of
//      per-processor maxima. Priority-ordered: one in-service request of
//      any priority plus every higher-or-equal-priority remote request
//      issued while we wait — a fixpoint that can diverge (low-priority
//      starvation); divergence saturates the bound, which then simply
//      fails the schedulability tests.
//      Same-processor users never contribute: a local user inside its
//      non-preemptive section implies we are not running, hence not yet
//      requesting.
//
//  A   Arrival blocking — when a job starts or resumes from a voluntary
//      suspension, at most one lower-priority local task can sit in a
//      non-preemptive spin+section window; spin jobs never suspend on a
//      lock, so these are the ONLY resume points: (1 + voluntary
//      suspensions) windows of max_l(spin_l + cs_l). This is where spin
//      beats suspension-based MPCP, whose F1 charges every global access.
//
//  Deferred-execution penalty — as for MPCP/DPCP: suspending
//      higher-priority local tasks each charge one extra burst (their
//      C_j plus their own spin, which also occupies the processor).
//
// The spin wait also *inflates* every interfering job's processor
// occupancy (a spinning job holds its CPU), so the schedulability tests
// must charge higher-priority interference as C_j + spin_j — returned
// as spinInflation() and passed to analyzeSchedulability's inflation
// span.
#pragma once

#include <vector>

#include "analysis/blocking_factors.h"
#include "analysis/system_index.h"
#include "common/types.h"
#include "model/task_system.h"

namespace mpcp {

/// The saturated per-request bound a divergent priority-ordered fixpoint
/// collapses to. Large enough to fail every test, small enough that
/// summing per-task terms cannot overflow Duration.
inline constexpr Duration kSpinBoundSaturated = Duration{1} << 40;

/// Iterations before the priority-ordered fixpoint is declared divergent
/// and saturated.
inline constexpr int kSpinFixpointIterationCap = 64;

/// Bounds for every task, indexed by TaskId: S, A and the penalty.
/// `priority_ordered` selects spin-prio's grant order (false = FIFO /
/// MSRP). paper_literal_factor5 does not apply.
[[nodiscard]] std::vector<BlockingBreakdown> spinBlocking(
    const TaskSystem& system, bool priority_ordered,
    BlockingOptions options = {});
[[nodiscard]] std::vector<BlockingBreakdown> spinBlocking(
    const SystemIndex& index, bool priority_ordered,
    BlockingOptions options = {});

/// Per-task interference inflation (== S) for analyzeSchedulability's
/// inflation span.
[[nodiscard]] std::vector<Duration> spinInflation(
    const std::vector<BlockingBreakdown>& breakdowns);

}  // namespace mpcp
