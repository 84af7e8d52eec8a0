// Seeded protocol mutations — known-bad variants the fuzzer must catch.
//
// Differential fuzzing is only trustworthy if it demonstrably detects the
// bug classes it claims to cover (Brandenburg, arXiv:1909.09600: locking
// protocols are routinely mis-implemented in priority-queue/ceiling corner
// cases). Each Mutation is a deliberately wrong protocol variant; CI runs
// the fuzz loop against every mutation and fails if the oracles stay
// silent within the smoke budget. A repro produced against a mutation and
// later shrunk makes a good corpus entry: it must *fail* when replayed
// with the mutation and stay *clean* on the real protocol.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ceilings.h"
#include "model/task_system.h"
#include "sim/protocol.h"

namespace mpcp::fuzz {

enum class Mutation {
  kNone,
  /// MPCP rule 3 implemented without the P_G base: gcs's execute at the
  /// highest *remote-user task* priority instead of being raised into the
  /// global band above P_H (the classic "forgot the ceiling offset" bug —
  /// Table 4-2's priorities collapse into the normal band, so Theorem 2
  /// no longer holds).
  kGcsCeilingBase,
  /// spin-fifo granting LIFO: the *newest* spinner wins the handoff. The
  /// MSRP per-request bound (one earlier request per remote processor)
  /// collapses — a spinner can be overtaken arbitrarily often — so the
  /// reference differential and the blocking-bound oracle must notice.
  kSpinFifoLifo,
  /// spin-prio granting in plain arrival order, ignoring priority — the
  /// priority-ordered handoff audit and the reference differential must
  /// notice.
  kSpinPrioFifo,
};

[[nodiscard]] const char* toString(Mutation m);
/// Parses a mutation name ("gcs-ceiling-base"); nullopt if unknown.
[[nodiscard]] std::optional<Mutation> mutationFromName(const std::string& s);
/// Every real mutation (kNone excluded), for --list-mutations and tests.
[[nodiscard]] const std::vector<Mutation>& allMutations();

/// Registry name of the protocol mutation `m` replaces ("mpcp",
/// "spin-fifo", ...); "" for kNone. Other protocols run unmodified when
/// fuzzing under `m`.
[[nodiscard]] const char* mutationTarget(Mutation m);

/// Builds the mutated variant of mutationTarget(m) (kNone = the real
/// mpcp protocol). `system` and `tables` must outlive the result.
[[nodiscard]] std::unique_ptr<SyncProtocol> makeMutatedProtocol(
    Mutation m, const TaskSystem& system, const PriorityTables& tables);

}  // namespace mpcp::fuzz
