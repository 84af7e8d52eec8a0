// Slot-indexed pool of in-flight jobs + the engine's hot-state arrays.
//
// Storage is sized once per run: configure() reserves one chunk of
// exactly the expected slot count (stable addresses — protocols and
// ready queues hold Job*) plus one held slab that gives every slot a
// fixed slice of `held_depth` entries for its held stack, and sizes the
// SoA arrays below to match. A slot's Job is constructed the first time
// the slot is claimed, so a run touches only the slots it uses; a free
// list recycles finished jobs' slots, and steady-state
// allocate()/release() performs no heap allocation at all. A run past
// its estimate grows by whole chunks of the same size.
//
// Hot state is structure-of-arrays, keyed by slot: the engine's
// per-event accounting walk (waiting-time attribution over every live
// job) reads `phase / proc / base priority` and bumps one of three
// wait accumulators — with the old Job-object layout that walk chased a
// pointer per job and dragged whole ~250-byte Job structs through the
// cache; here it streams a few contiguous arrays. The engine mirrors
// job state into these arrays at every transition; Job remains the
// authoritative record protocols see.
//
// Live-set indexes:
//   * an intrusive doubly-linked live list in *release order* — the
//     engine's sweeps (waiting-time attribution, horizon flush) must see
//     jobs in exactly the order the old std::list iterated, or traces
//     and result rows would reorder;
//   * per-task live-slot vectors (release order within the task) —
//     find() scans the handful of live instances of one task instead of
//     hashing, and the overrun check walks exactly one task's instances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/job.h"

namespace mpcp {

class JobPool {
 public:
  /// Chunk size of a pool used without configure().
  static constexpr std::size_t kChunkSize = 128;

  JobPool() = default;
  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;
  ~JobPool() {
    for (std::size_t s = 0; s < size_; ++s) {
      std::destroy_at(slotPtr(static_cast<std::uint32_t>(s)));
    }
    for (Chunk& c : chunks_) {
      if (c.jobs != nullptr) {
        std::allocator<Job>().deallocate(c.jobs, chunk_slots_);
      }
    }
  }

  /// Run phase mirrored from Job::state (+ the suspended/blocked split
  /// of kWaiting) — the only discriminant the accounting walk needs.
  enum class Phase : std::uint8_t { kReady = 0, kBlocked = 1, kSuspended = 2 };

  /// Per-slot waiting-time accumulators (moved out of Job; maintained
  /// lazily — see WaitClass).
  struct Waits {
    Duration blocked = 0;    ///< priority-inversion waiting (toward B_i)
    Duration preempted = 0;  ///< behind higher-assigned-priority work
    Duration suspended = 0;  ///< voluntary self-suspension
  };

  /// Which accumulator a job's elapsing time belongs to *right now*. The
  /// engine keeps (class, mark-time) per slot and flushes `now - mark`
  /// into the class's accumulator only when the class changes — a job's
  /// classification is piecewise constant between state transitions, so
  /// the flushed sums are identical to per-advance accrual, without the
  /// O(live) walk per clock advance.
  enum class WaitClass : std::uint8_t {
    kRun = 0,        ///< dispatched: accrues nothing here
    kBlocked = 1,    ///< Waits::blocked
    kPreempted = 2,  ///< Waits::preempted
    kSuspended = 3,  ///< Waits::suspended
  };

  /// Sizes every internal structure for a run: one chunk of
  /// `expected_slots` job slots, each with a held stack of `held_depth`
  /// entries (the task system's static nesting depth), the per-task index
  /// for `n_tasks` tasks with `per_task_reserve` live slots reserved per
  /// task, and the SoA arrays. Steady-state allocate()/release() then
  /// never allocates (chunk growth remains as a fallback if a run exceeds
  /// the estimate). Must be called before the first allocate().
  void configure(std::size_t n_tasks, std::size_t expected_slots,
                 std::size_t held_depth, std::size_t per_task_reserve) {
    MPCP_CHECK(chunks_.empty(), "JobPool::configure() on a used pool");
    chunk_slots_ = std::max<std::size_t>(expected_slots, 1);
    held_depth_ = static_cast<std::uint32_t>(held_depth);
    if (task_slots_.size() < n_tasks) task_slots_.resize(n_tasks);
    for (auto& v : task_slots_) v.reserve(per_task_reserve);
    free_.reserve(chunk_slots_);
    addChunk();
  }

  /// Returns a freshly reset Job with stable address, registered under
  /// `id`. The job's pool_slot is filled in and `held` is its slot's empty
  /// slice. Fresh slots are claimed in index order, recycled ones first.
  /// The engine stamps proc/base right after.
  Job& allocate(JobId id) {
    MPCP_CHECK(id.task.valid(), "JobPool: job with invalid task id");
    std::uint32_t slot;
    Job* jp;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      jp = slotPtr(slot);
      *jp = Job{};
    } else {
      slot = static_cast<std::uint32_t>(size_);
      if (size_ == chunks_.size() * chunk_slots_) addChunk();
      jp = std::construct_at(slotPtr(slot));
      ++size_;
    }
    Job& j = *jp;
    j.held = HeldStack(heldSlice(slot), held_depth_);
    j.id = id;
    j.pool_slot = slot;

    // Register before linking: a duplicate id must throw without leaving
    // a half-linked orphan in the live list (the slot itself is leaked,
    // which is fine — the check signals a fatal engine bug).
    const auto t = static_cast<std::size_t>(id.task.value());
    if (t >= task_slots_.size()) task_slots_.resize(t + 1);
    auto& slots = task_slots_[t];
    for (const std::uint32_t s : slots) {
      MPCP_CHECK(at(s).id.instance != id.instance,
                 "JobPool: duplicate live job " << id);
    }
    slots.push_back(slot);

    // Append to the live list (release order).
    live_prev_[slot] = tail_;
    live_next_[slot] = -1;
    if (tail_ >= 0) {
      live_next_[static_cast<std::size_t>(tail_)] =
          static_cast<std::int32_t>(slot);
    } else {
      head_ = static_cast<std::int32_t>(slot);
    }
    tail_ = static_cast<std::int32_t>(slot);
    ++live_;

    phase_[slot] = Phase::kReady;
    waits_[slot] = {};
    wait_cls_[slot] = WaitClass::kRun;
    wait_mark_[slot] = 0;  // engine stamps the release time right after
    return j;
  }

  /// Unlinks a finished job and recycles its slot.
  void release(Job& j) {
    MPCP_CHECK(j.pool_slot < size_ && &at(j.pool_slot) == &j,
               "JobPool::release: foreign job " << j.id);
    const auto t = static_cast<std::size_t>(j.id.task.value());
    MPCP_CHECK(t < task_slots_.size(), "JobPool::release: job " << j.id
                                                                << " not live");
    auto& slots = task_slots_[t];
    const auto it = std::find(slots.begin(), slots.end(), j.pool_slot);
    MPCP_CHECK(it != slots.end(),
               "JobPool::release: job " << j.id << " not live");
    slots.erase(it);  // preserves release order among remaining instances

    const std::uint32_t slot = j.pool_slot;
    if (live_prev_[slot] >= 0) {
      live_next_[static_cast<std::size_t>(live_prev_[slot])] =
          live_next_[slot];
    } else {
      head_ = live_next_[slot];
    }
    if (live_next_[slot] >= 0) {
      live_prev_[static_cast<std::size_t>(live_next_[slot])] =
          live_prev_[slot];
    } else {
      tail_ = live_prev_[slot];
    }
    live_prev_[slot] = live_next_[slot] = -1;

    free_.push_back(slot);
    --live_;
  }

  /// Lookup of a live job — scans the job's task's live instances (a
  /// handful at most; no hashing). nullptr if the id is not live.
  [[nodiscard]] Job* find(JobId id) {
    if (!id.task.valid()) return nullptr;
    const auto t = static_cast<std::size_t>(id.task.value());
    if (t >= task_slots_.size()) return nullptr;
    for (const std::uint32_t s : task_slots_[t]) {
      Job& j = at(s);
      if (j.id.instance == id.instance) return &j;
    }
    return nullptr;
  }

  /// Slot a live job occupies (tests assert lookup stability).
  [[nodiscard]] std::uint32_t slotOf(const Job& j) const {
    return j.pool_slot;
  }

  [[nodiscard]] std::size_t liveCount() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return size_; }

  /// Visits every live job in release order. `fn` must not allocate or
  /// release pool jobs, but may mutate the visited job.
  template <typename Fn>
  void forEachLive(Fn&& fn) {
    for (std::int32_t s = head_; s >= 0;) {
      const std::int32_t next = live_next_[static_cast<std::size_t>(s)];
      fn(at(static_cast<std::uint32_t>(s)));
      s = next;  // read before fn in case fn released the visited job
    }
  }

  // ----- slot-indexed hot state (engine accounting paths) -----

  [[nodiscard]] Job& jobAt(std::uint32_t slot) { return at(slot); }
  [[nodiscard]] std::int32_t liveHead() const { return head_; }
  [[nodiscard]] std::int32_t liveNext(std::int32_t slot) const {
    return live_next_[static_cast<std::size_t>(slot)];
  }

  [[nodiscard]] Phase phase(std::uint32_t slot) const { return phase_[slot]; }
  void setPhase(std::uint32_t slot, Phase p) { phase_[slot] = p; }
  [[nodiscard]] std::int32_t procOf(std::uint32_t slot) const {
    return proc_[slot];
  }
  void setProc(std::uint32_t slot, std::int32_t proc) { proc_[slot] = proc; }
  [[nodiscard]] std::int32_t baseOf(std::uint32_t slot) const {
    return base_[slot];
  }
  void setBase(std::uint32_t slot, std::int32_t urgency) {
    base_[slot] = urgency;
  }
  [[nodiscard]] Waits& waits(std::uint32_t slot) { return waits_[slot]; }
  [[nodiscard]] const Waits& waits(std::uint32_t slot) const {
    return waits_[slot];
  }
  [[nodiscard]] WaitClass waitClass(std::uint32_t slot) const {
    return wait_cls_[slot];
  }
  void setWaitClass(std::uint32_t slot, WaitClass c) { wait_cls_[slot] = c; }
  [[nodiscard]] Time waitMark(std::uint32_t slot) const {
    return wait_mark_[slot];
  }
  void setWaitMark(std::uint32_t slot, Time t) { wait_mark_[slot] = t; }

  /// Live slots of one task, in release order (overrun sweeps).
  [[nodiscard]] const std::vector<std::uint32_t>& taskSlots(
      std::size_t task) const {
    return task_slots_[task];
  }
  [[nodiscard]] std::size_t taskCount() const { return task_slots_.size(); }

 private:
  /// Storage for `chunk_slots_` jobs (constructed on first claim) and
  /// their held slices, `held_depth_` entries per slot.
  struct Chunk {
    Job* jobs = nullptr;
    std::unique_ptr<ResourceId[]> held;
  };

  [[nodiscard]] Job* slotPtr(std::uint32_t slot) const {
    // A configured run stays in its first chunk; only overflow chunks
    // pay the division.
    if (slot < chunk_slots_) return chunks_.front().jobs + slot;
    return chunks_[slot / chunk_slots_].jobs + slot % chunk_slots_;
  }
  [[nodiscard]] Job& at(std::uint32_t slot) { return *slotPtr(slot); }
  [[nodiscard]] const Job& at(std::uint32_t slot) const {
    return *slotPtr(slot);
  }
  [[nodiscard]] ResourceId* heldSlice(std::uint32_t slot) const {
    return chunks_[slot / chunk_slots_].held.get() +
           static_cast<std::size_t>(slot % chunk_slots_) * held_depth_;
  }

  /// Appends one chunk and sizes every SoA array to the new capacity.
  void addChunk() {
    Chunk& c = chunks_.emplace_back();
    c.jobs = std::allocator<Job>().allocate(chunk_slots_);
    if (held_depth_ > 0) {
      c.held = std::make_unique_for_overwrite<ResourceId[]>(chunk_slots_ *
                                                            held_depth_);
    }
    const std::size_t cap = chunks_.size() * chunk_slots_;
    phase_.resize(cap, Phase::kReady);
    proc_.resize(cap, -1);
    base_.resize(cap, 0);
    waits_.resize(cap);
    wait_cls_.resize(cap, WaitClass::kRun);
    wait_mark_.resize(cap, 0);
    live_prev_.resize(cap, -1);
    live_next_.resize(cap, -1);
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_slots_ = kChunkSize;
  std::uint32_t held_depth_ = 0;
  std::vector<std::uint32_t> free_;
  std::vector<std::vector<std::uint32_t>> task_slots_;  // per task, live
  std::size_t size_ = 0;   // slots ever claimed (constructed)
  std::size_t live_ = 0;
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;

  // Parallel slot-indexed arrays (see class comment).
  std::vector<Phase> phase_;
  std::vector<std::int32_t> proc_;
  std::vector<std::int32_t> base_;
  std::vector<Waits> waits_;
  std::vector<WaitClass> wait_cls_;
  std::vector<Time> wait_mark_;
  std::vector<std::int32_t> live_prev_;
  std::vector<std::int32_t> live_next_;
};

}  // namespace mpcp
