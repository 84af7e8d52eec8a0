// Runtime job state inside the simulation engine.
//
// Split layout (hot-path restructuring): the fields the engine's
// per-event accounting loop reads for *every* live job — run phase,
// current processor, assigned priority, waiting-time accumulators — live
// in the JobPool's slot-indexed parallel arrays (see job_pool.h), not
// here. The Job struct keeps everything touched only for the few
// dispatched/transitioning jobs per event. The engine mirrors `state`,
// `current` and `base` into the pool arrays at every transition;
// protocols keep mutating the Job fields exactly as before.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/priority.h"
#include "common/types.h"
#include "model/body.h"

namespace mpcp {

enum class JobState {
  kReady,     ///< eligible for dispatch on `current` processor
  kWaiting,   ///< blocked on a local semaphore or suspended on a global one
  kFinished,
};

/// Stack of a job's held semaphores (LIFO by construction) over a fixed
/// slice of the JobPool's held slab. The slice holds the task system's
/// static nesting depth, which no job can exceed: each grant pushes one
/// LockOp's resource and every path out of a section pops it.
class HeldStack {
 public:
  HeldStack() = default;
  HeldStack(ResourceId* slice, std::uint32_t capacity)
      : data_(slice), cap_(capacity) {}

  void push_back(ResourceId r) {
    MPCP_CHECK(size_ < cap_,
               "held stack deeper than the static nesting depth " << cap_);
    data_[size_++] = r;
  }
  void pop_back() { --size_; }
  [[nodiscard]] ResourceId back() const { return data_[size_ - 1]; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] const ResourceId* begin() const { return data_; }
  [[nodiscard]] const ResourceId* end() const { return data_ + size_; }

 private:
  ResourceId* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

/// One in-flight task instance. Owned by the Engine; protocols mutate the
/// priority fields and (via Engine services) the state.
struct Job {
  JobId id;
  ProcessorId host;     ///< static binding (Section 3.2)
  ProcessorId current;  ///< == host except while a DPCP gcs runs remotely

  Time release = 0;
  Time abs_deadline = 0;

  // --- execution cursor ---
  std::size_t op_index = 0;
  /// Remaining ticks of the current ComputeOp; -1 = not yet entered.
  Duration op_remaining = -1;
  /// The task body's op array, cached at release so the op-consumption
  /// loop skips the TaskSystem::task() indirection per op.
  const Op* ops = nullptr;
  std::size_t op_count = 0;
  /// Stack of currently held resources (LIFO by construction).
  HeldStack held;

  JobState state = JobState::kReady;
  /// Semaphore this job is waiting for when state == kWaiting.
  ResourceId waiting_for;
  /// Busy-waiting on `waiting_for` (spin protocols): the job is kReady
  /// and occupies its processor but makes no op progress; the wait is
  /// accounted as blocking. Set/cleared only via Engine::parkSpinning /
  /// Engine::noteSpinGranted.
  bool spinning = false;
  /// End of the current voluntary suspension; -1 when not self-suspended.
  /// A kWaiting job with suspended_until >= 0 is voluntarily suspended,
  /// not blocked.
  Time suspended_until = -1;

  // --- priority components (Section 4/5 structure) ---
  Priority base;                           ///< assigned task priority
  Priority inherited = kPriorityFloor;     ///< PIP/PCP inheritance
  Priority elevated = kPriorityFloor;      ///< gcs-band priority when in a gcs

  /// Dispatch key: the job runs at the highest applicable priority.
  [[nodiscard]] Priority effectivePriority() const {
    Priority p = base;
    if (inherited > p) p = inherited;
    if (elevated > p) p = elevated;
    return p;
  }

  /// FCFS tie-break among equal priorities: lower seq = queued earlier.
  std::uint64_t ready_seq = 0;

  // --- accounting ---
  // blocked/preempted/suspended accumulators live in the JobPool's SoA
  // arrays (bumped for every live job per advance; see JobPool::Waits).
  Duration executed = 0;        ///< ticks actually run
  Time finish = -1;             ///< completion time, -1 while in flight
  bool miss_noted = false;      ///< deadline-miss trace event already emitted

  // --- fault-injection / containment state (engine-internal; all inert
  // unless the run has a FaultPlan or an active ContainmentConfig) ---
  /// budget-enforce allowance for the current gcs; -1 = not armed.
  Duration gcs_budget = -1;
  Duration gcs_consumed = 0;    ///< ticks executed since entering that gcs
  ResourceId gcs_resource;      ///< semaphore the armed budget belongs to
  std::size_t gcs_unlock_index = 0;  ///< op index of its matching V()
  /// Semaphores the watchdog revoked from this job: the corresponding
  /// pending UnlockOps are consumed as no-ops when reached.
  std::vector<ResourceId> force_released;
  std::uint32_t faults_noted = 0;    ///< fault::bitOf mask already recorded
  bool wcet_delta_applied = false;   ///< one-shot WCET delta consumed
  bool abort_pending = false;        ///< retire at next safe point
  bool miss_policy_applied = false;  ///< on-miss containment already decided

  // --- JobPool bookkeeping (engine-internal; protocols must not touch) ---
  std::uint32_t pool_slot = 0;  ///< slab slot this job occupies
};

}  // namespace mpcp
