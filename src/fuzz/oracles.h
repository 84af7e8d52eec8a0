// Oracle families for the differential protocol fuzzer.
//
// Given one task system, checkSystem() runs every applicable protocol
// through sim::Engine and evaluates three oracle families:
//
//   (a) invariant:*  — post-hoc trace invariants (trace/invariants.*):
//       mutual exclusion everywhere; priority-ordered handoff for the
//       priority-queued protocols (spin-fifo is FIFO and exempt); Theorem
//       2 (gcs never preempted by non-cs code) and rule-3 gcs priority
//       assignment for MPCP; the message-based gcs priority rule for
//       DPCP; spin-never-yields for the spin protocols (no other job may
//       execute on a spinner's processor between its P() and the grant).
//   (b) soundness:*  — analysis vs observation (core/blocking.*,
//       analysis/blocking_*): an analysis-accepted system must not miss
//       deadlines, and in a miss-free run every job's observed blocking
//       must stay within its B_i bound.
//   (c) cross:*      — differential checks across implementations:
//       MPCP and the spin protocols vs the independent tick-stepped
//       reference simulator; hybrid(all-shared) ≡ MPCP and
//       hybrid(all-message) ≡ DPCP job finish times; and on systems with
//       no global resources, PCP, MPCP and DPCP must agree exactly (they
//       all reduce to local PCP).
//
// Plus "crash:*" when an internal MPCP_CHECK trips during simulation —
// an engine/protocol invariant failure is always a finding.
//
// Oracle ids are stable strings ("invariant:mutual-exclusion", ...); the
// shrinker uses them to preserve "violates the same oracle" while
// minimizing, and repro files record them.
#pragma once

#include <string>
#include <vector>

#include "fault/plan.h"
#include "fuzz/mutations.h"
#include "model/task_system.h"

namespace mpcp::fuzz {

struct OracleFailure {
  std::string protocol;  ///< registry name ("mpcp", "hybrid", ...)
  std::string oracle;    ///< stable id, e.g. "soundness:blocking-bound"
  std::string details;   ///< first violation, human-readable
};

struct OracleOptions {
  /// Protocols to exercise; empty = the full registry.
  std::vector<std::string> protocols;
  /// Fault injection (applies to the protocols the mutation targets).
  Mutation mutation = Mutation::kNone;
  /// Auto-horizon cap for the per-protocol runs.
  Time horizon_cap = 200'000;
  /// Horizon of the O(horizon x jobs) reference-simulator differential.
  Time differential_horizon = 1'200;
  /// Enable the cross-implementation family (c).
  bool cross_checks = true;
};

/// Runs all oracles; returns every failure, deterministically ordered.
[[nodiscard]] std::vector<OracleFailure> checkSystem(
    const TaskSystem& system, const OracleOptions& options = {});

// ---------------------------------------------------------------------
// Fault-injection mode (ISSUE 4): instead of comparing protocols against
// each other, run MPCP with a FaultPlan under every containment policy
// and check the properties that must survive *arbitrary* misbehavior:
//
//   fault:crash             — no MPCP_CHECK may trip, faults or not;
//   fault:mutual-exclusion  — a contained fault never corrupts semaphore
//                             state (two holders of one resource);
//   fault:priority-handoff  — forced releases and budget kills still hand
//                             off to the highest-priority waiter (rule 3);
//   fault:neutral-containment — inert policies (budget grace 1.0, a
//                             watchdog that can never fire) with NO plan
//                             are schedule-identical to a plain run;
//   fault:cross-reference   — for mirrorable plans, the engine under
//                             policy "none" matches the tick-stepped
//                             reference with the same plan.

struct FaultOracleOptions {
  Time horizon_cap = 200'000;
  /// Horizon of the engine-vs-reference differential under the plan.
  Time differential_horizon = 1'200;
  /// Grace multiplier for the budget-enforce policy run.
  double grace = 1.0;
  /// Timeout for the holder-watchdog policy run.
  Duration watchdog_timeout = 500;
};

/// One named containment policy exercised by the fault oracles.
struct FaultPolicy {
  std::string name;
  fault::ContainmentConfig config;
};

/// The fixed policy sweep ("none", "watchdog", "budget-enforce",
/// "job-abort", "skip-next-release"), parameterized by `options`.
/// Exposed so replay reports and tests fingerprint the same runs.
[[nodiscard]] std::vector<FaultPolicy> faultPolicies(
    const FaultOracleOptions& options);

/// Runs MPCP with `plan` under every containment policy and evaluates the
/// fault:* oracles above. Deterministically ordered.
[[nodiscard]] std::vector<OracleFailure> checkSystemFaults(
    const TaskSystem& system, const fault::FaultPlan& plan,
    const FaultOracleOptions& options = {});

}  // namespace mpcp::fuzz
