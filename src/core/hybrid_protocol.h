// The multiprocessor priority ceiling protocols. One class runs the
// paper's shared-memory protocol (MPCP, Section 5), the message-based
// baseline it is compared with (DPCP, reference [8], Section 5.2), and
// the mix the paper's conclusion proposes: "the shared memory and
// message-based protocols can be mixed to reduce critical blocking
// factors and/or support nested critical sections." Each *global*
// resource carries a policy; the registry's `mpcp` and `dpcp` are the
// two uniform policies, `hybrid` a per-resource mix.
//
// Shared-memory policy — rules 1–7 of Section 5:
//  1. A job uses its assigned priority outside critical sections.
//  2. Local semaphores follow the uniprocessor PCP on each processor
//     (LocalPcp), including priority inheritance on blocking.
//  3. A job inside a gcs guarded by S_g runs at the gcs's *fixed*
//     preassigned priority: P_G + max{priority of remote users of S_g}
//     (Section 4.4) — static inheritance to the highest level a remote
//     waiter could ever impose, so no dynamic priority changes are needed.
//  4. Gcs's preempt each other by gcs priority (follows from 3: the
//     dispatcher compares effective priorities).
//  5. A free global semaphore is granted by an atomic RMW — in the DES,
//     immediately inside onLock.
//  6. A held global semaphore suspends the requester into a
//     priority-ordered queue keyed by its *normal assigned* priority.
//     The host processor is released: lower-priority local jobs run
//     (the source of blocking factors 1 and 5 in the analysis).
//  7. V(S_g) hands the semaphore to the highest-priority waiter, which
//     becomes eligible on its host processor at its gcs priority.
// With one processor, and hence no global semaphores, this reduces to
// the uniprocessor PCP (tested as a property).
//
// Message-based policy — every global semaphore S_g is bound to one
// synchronization processor pi(S_g) (ResourceInfo::sync_processor). A job
// reaching a gcs on S_g effectively sends a request there: the job's
// critical section *migrates* to pi(S_g) and executes at the full global
// priority ceiling of S_g ("it is suggested that a gcs guarded by S_g
// always execute at a priority equal to the global priority ceiling of
// S_g [8]" — Section 4.4). The host processor is free meanwhile, as
// under rule 6. Queueing, grant and handoff follow rules 5–7; the agent
// queues on pi(S_g) in request order. The gcs-enter and handoff trace
// events name pi(S_g), where the section runs.
//
// Why mix? A message-based resource's gcs's leave the users' processors,
// deleting their factor-5 interference there (lower-priority local gcs's
// preempting normal code) and concentrating contention on a processor
// that can be dedicated; shared-memory resources avoid the agent
// funnelling and the full-ceiling pessimism. The hybrid ablation bench
// (bench/hybrid_ablation) quantifies the trade.
//
// Nesting: sections on shared-memory-policy resources must be flat (the
// paper's base assumption, Section 4.2; collapse nests into group locks —
// taskgen/group_locks.h). Message-based sections may nest among
// themselves when their resources share a sync processor ("as long as
// locks do not cross processor boundaries" — Section 5.2); a nested entry
// keeps the highest ceiling among the job's open sections. Local/global
// and mixed-policy nesting is rejected.
#pragma once

#include <optional>
#include <vector>

#include "analysis/ceilings.h"
#include "common/check.h"
#include "protocols/local_pcp.h"
#include "protocols/sem_state.h"
#include "sim/protocol.h"

namespace mpcp {

enum class GlobalPolicy {
  kSharedMemory,  ///< MPCP-style in-place gcs
  kMessageBased,  ///< DPCP-style remote agent
};

/// Per-resource policy map (entries for local resources are ignored).
/// allShared/allMessage hold no per-resource storage until set().
class HybridPolicy {
 public:
  HybridPolicy() = default;
  explicit HybridPolicy(std::vector<GlobalPolicy> per_resource)
      : per_resource_(std::move(per_resource)),
        size_(per_resource_.size()) {}

  /// Every global resource shared-memory (== pure MPCP).
  static HybridPolicy allShared(const TaskSystem& system);
  /// Every global resource message-based (== pure DPCP).
  static HybridPolicy allMessage(const TaskSystem& system);

  [[nodiscard]] GlobalPolicy of(ResourceId r) const {
    MPCP_CHECK(r.valid() && static_cast<std::size_t>(r.value()) < size_,
               "HybridPolicy::of: unknown resource " << r);
    return uniform_.has_value()
               ? *uniform_
               : per_resource_[static_cast<std::size_t>(r.value())];
  }
  void set(ResourceId r, GlobalPolicy policy);
  /// The policy of an allShared/allMessage map never set() since.
  [[nodiscard]] std::optional<GlobalPolicy> uniform() const {
    return uniform_;
  }

 private:
  HybridPolicy(std::size_t size, GlobalPolicy uniform)
      : size_(size), uniform_(uniform) {}

  std::vector<GlobalPolicy> per_resource_;  ///< unused while uniform_ is set
  std::size_t size_ = 0;
  std::optional<GlobalPolicy> uniform_;
};

class HybridProtocol final : public SyncProtocol {
 public:
  /// Throws ConfigError on policy-incompatible nesting (see above).
  HybridProtocol(const TaskSystem& system, const PriorityTables& tables,
                 HybridPolicy policy);

  void attach(Engine& engine) override;
  LockOutcome onLock(Job& j, ResourceId r) override;
  void onUnlock(Job& j, ResourceId r) override;
  void onJobFinished(Job& j) override;
  /// "mpcp" / "dpcp" under allShared / allMessage, "hybrid" otherwise.
  [[nodiscard]] const char* name() const override { return name_; }

 private:
  [[nodiscard]] bool messageBased(ResourceId r) const {
    return policy_.of(r) == GlobalPolicy::kMessageBased;
  }
  /// Rule 3's fixed gcs priority on `host`, or an agent's full ceiling.
  [[nodiscard]] Priority elevation(ResourceId r, ProcessorId host,
                                   bool message) const {
    return message ? tables_->ceiling(r) : tables_->gcsPriority(r, host);
  }
  [[nodiscard]] ProcessorId syncOf(ResourceId r) const {
    return *system_->resource(r).sync_processor;
  }

  const TaskSystem* system_;
  const PriorityTables* tables_;
  HybridPolicy policy_;
  const char* name_;
  LocalPcp local_;
  std::vector<SemState> global_;  // indexed by resource id; local unused
};

}  // namespace mpcp
