// The one shape every blocking bound takes: B_i as a sum of named
// factors (Section 5.1), and the options every blocking analysis reads.
//
// One enum names every factor of every analysis. A protocol's analysis
// fills the factors it has and leaves the rest zero, so total() and
// remoteSuspension() mean the same thing under every protocol:
//   pcp                 F1
//   mpcp (allShared)    F1, F2', F3', F4', F5', deferred
//   dpcp (allMessage)   D1 = F1, D2 = F2', D3 = F3' + D3', D4 = D4',
//                       deferred
//   hybrid              F1..F5', D3', D4', deferred
//   spin-fifo/-prio     S, A, deferred
// The derivations are in core/hybrid_blocking.h (the ceiling-protocol
// family) and analysis/blocking_spin.h (the spin protocols).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace mpcp {

enum class BlockingFactor : std::uint8_t {
  kLocalLowerCs,       ///< F1 (D1): lower-priority local critical sections
  kLowerGcsQueue,      ///< F2' (D2): lower-priority gcs ahead in the queue
  kHigherGcsRemote,    ///< F3': higher-priority gcs's on GS_i
  kBlockingProcGcs,    ///< F4': preemption of direct blockers
  kLocalLowerGcs,      ///< F5': lower-priority local shared-memory gcs's
  kAgentInterference,  ///< D3': other sections delaying J_i's agents
  kHostAgentLoad,      ///< D4': remote agents executing on J_i's host
  kSpinWait,           ///< S: busy-wait over all requests
  kArrivalBlocking,    ///< A: non-preemptive arrival windows
  kDeferredExecution,  ///< deferred-execution penalty (0 when disabled)
};
inline constexpr std::size_t kBlockingFactorCount =
    static_cast<std::size_t>(BlockingFactor::kDeferredExecution) + 1;

/// Per-factor decomposition of one task's worst-case blocking bound.
struct BlockingBreakdown {
  std::array<Duration, kBlockingFactorCount> terms{};

  [[nodiscard]] Duration& operator[](BlockingFactor f) {
    return terms[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] Duration operator[](BlockingFactor f) const {
    return terms[static_cast<std::size_t>(f)];
  }
  /// B_i before self-suspension: every factor.
  [[nodiscard]] Duration total() const {
    Duration sum = 0;
    for (const Duration d : terms) sum += d;
    return sum;
  }
  /// The suspension-driven part, F2' + F3' + F4' + D3': how long the job
  /// can sit in global wait queues or behind agents. The response-time
  /// analysis charges it as release jitter.
  [[nodiscard]] Duration remoteSuspension() const {
    using enum BlockingFactor;
    return (*this)[kLowerGcsQueue] + (*this)[kHigherGcsRemote] +
           (*this)[kBlockingProcGcs] + (*this)[kAgentInterference];
  }
};

/// The options every blocking analysis takes.
struct BlockingOptions {
  /// Use the paper text's literal max(NG_i + 1, 2*NG_l) in F5' instead of
  /// the sound-and-tight min(.) (see core/hybrid_blocking.h).
  bool paper_literal_factor5 = false;
  /// Charge the deferred-execution penalty.
  bool include_deferred_execution = true;
};

}  // namespace mpcp
