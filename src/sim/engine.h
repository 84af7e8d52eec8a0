// Discrete-event multiprocessor fixed-priority scheduling engine.
//
// The engine simulates the model of Section 3: statically-bound periodic
// tasks under priority-driven preemptive scheduling, with synchronization
// delegated to a pluggable SyncProtocol. Time is integral and the engine
// is fully deterministic: identical inputs produce identical traces.
//
// Structure of the main loop:
//   1. release jobs due now;
//   2. settle(): dispatch the highest effective-priority ready job on each
//      processor and consume all zero-duration ops (P/V, job completion),
//      repeating until no processor changes — P/V cascades (handoffs that
//      wake jobs on other processors, ceiling blocks, preemptions by
//      freshly-elevated gcs's) all resolve within the same instant;
//   3. advance the clock to the next event (release or compute-segment
//      completion), accruing per-job execution/blocking/preemption time.
//
// Hot-path data structures (ISSUE 1, reshaped in ISSUE 7): job storage is
// a slot-indexed JobPool whose parallel arrays carry the per-job hot
// state (phase, processor, base priority, wait accumulators) the advance
// loop streams; pending releases and timed suspensions live in calendar
// queues (TimingWheel) that batch-drain a whole tick at once; settle()
// visits only processors marked dirty by a state transition instead of
// sweeping all of them; and a per-run Arena carries the fixed scratch
// buffers so the steady-state loop performs zero heap allocations (see
// DESIGN.md, "Engine hot path"). Each processor's ready set is a
// StablePriorityQueue ordered by (effective priority, global arrival
// seq), so dispatch peeks the front instead of scanning. Protocols that
// mutate a ready job's priority in place (inheritance, gcs elevation)
// MUST call notePriorityChanged() so the queue re-keys — wake()/migrate()
// re-key implicitly.
//
// Blocking attribution (used to validate the analysis): while a job J is
// not running, each tick counts as *preemption* if J's current processor
// is running a job with higher assigned (base) priority, and as *blocking*
// otherwise — i.e. whenever J waits on a semaphore, waits behind a
// lower-assigned-priority job boosted by inheritance or a gcs, or its
// processor idles while J is suspended remotely. This matches the paper's
// definition of blocking as "the duration a task waits additionally
// compared to the situation where no semaphores are present".
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/stable_priority_queue.h"
#include "common/types.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "sim/job.h"
#include "sim/job_pool.h"
#include "sim/protocol.h"
#include "sim/result.h"
#include "sim/timing_wheel.h"

namespace mpcp {

struct SimConfig {
  /// Simulation end time; 0 = auto (max phase + 2 * hyperperiod, capped).
  Time horizon = 0;
  /// Cap applied to the auto horizon.
  Time horizon_cap = 1'000'000;
  /// Stop as soon as any deadline is missed (breakdown-utilization sweeps).
  bool stop_on_deadline_miss = false;
  /// Record the event trace and execution segments.
  bool record_trace = true;
  /// Safety valve: abort if more jobs than this are released.
  std::int64_t max_jobs = 2'000'000;
  /// Fault-injection plan (not owned; must outlive the engine). Null or
  /// empty = no injection, and every fault hook stays schedule-neutral.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Containment policies (all off by default).
  fault::ContainmentConfig containment;
  /// Cooperative cancellation (not owned): the run loop polls this flag
  /// and throws SimCancelled when it becomes true. Used by the sweep
  /// runner's wall-clock watchdog to stop runaway simulations.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown by Engine::run() when SimConfig::cancel is raised mid-run.
class SimCancelled : public std::runtime_error {
 public:
  SimCancelled() : std::runtime_error("simulation cancelled") {}
};

class Engine {
 public:
  /// `protocol` must outlive the engine.
  Engine(const TaskSystem& system, SyncProtocol& protocol, SimConfig config);

  /// Runs the simulation to the horizon and returns the results.
  /// Single-shot: run() may only be called once.
  SimResult run();

  // ----- services available to protocols -----

  [[nodiscard]] const TaskSystem& system() const { return system_; }
  [[nodiscard]] Time now() const { return now_; }

  /// True when the run records a trace. Guard emit() calls that build a
  /// non-trivial TraceEvent so the hot path skips the construction too.
  [[nodiscard]] bool tracing() const { return config_.record_trace; }

  /// Parks the dispatched job as waiting on `r` (onLock kWaiting path).
  /// `blocker` (optional) is recorded in the trace.
  void parkWaiting(Job& j, ResourceId r, JobId blocker = {});

  /// Marks the dispatched job as busy-waiting on `r` (onLock kSpinning
  /// path). The job stays kReady and keeps occupying its processor, but
  /// its op cursor stalls at the LockOp and the wait is accounted as
  /// blocking. The protocol must have elevated the job into a
  /// non-preemptive band first (spin sections are non-preemptive), so
  /// the spinner cannot be displaced while it waits.
  void parkSpinning(Job& j, ResourceId r, JobId blocker = {});

  /// Hands the semaphore to a spinning job: clears the spin mark so the
  /// next settle visit re-runs onLock (which must now return kGranted).
  /// Called by the holder's onUnlock instead of wake().
  void noteSpinGranted(Job& j);

  /// Moves a waiting job back to ready on its `current` processor.
  void wake(Job& j);

  /// Moves a job to another processor (DPCP critical-section migration).
  void migrate(Job& j, ProcessorId target);

  /// Gives `j` a fresh FCFS arrival stamp (and re-keys its queue entry if
  /// ready). Agent dispatch to a sync processor uses this so equal-ceiling
  /// agents queue in *request* order — migrate() alone keeps the original
  /// stamp, which would let a never-blocked job's agent jump ahead of
  /// agents already granted and waiting for the sync CPU.
  void restampArrival(Job& j);

  /// Re-keys `j` in its processor's ready queue after the caller changed
  /// its inherited/elevated priority in place. No-op for non-ready jobs
  /// (they are keyed afresh on wake()). Protocols MUST call this after
  /// every in-place priority change of a job they did not just park/wake.
  void notePriorityChanged(Job& j);

  /// Emits a protocol-level trace event (engine fills the timestamp).
  void emit(TraceEvent e);

  /// Live job lookup by id (diagnostics; protocols keep their own
  /// queues). nullptr once a job finished.
  [[nodiscard]] Job* findJob(JobId id);

  /// Runtime counters for this run (part of the SimResult). Protocols
  /// bump protocol-level quantities here (handoffs, inheritance updates);
  /// the engine bumps everything on its own paths. Bumps must never
  /// influence scheduling decisions.
  [[nodiscard]] obs::Counters& counters() { return result_.counters; }

  /// Protocols report every global-semaphore holder transition here
  /// (acquire, handoff, or release with `holder == nullptr`) so the
  /// stuck-holder watchdog can time residence. No-op unless the watchdog
  /// policy is active and `r` is global.
  void noteGlobalHolder(ResourceId r, const Job* holder);

 private:
  /// Pending timed suspension. Validated at drain time — an entry is
  /// live iff its job still matches (id, kWaiting, suspended_until ==
  /// drain time); anything else went stale (retired or force-woken) and
  /// is dropped silently, as the old lazily-invalidated heap did.
  struct SuspPending {
    std::uint64_t seq = 0;  // insertion order; FIFO among equal times
    Job* job = nullptr;
    JobId id;
  };

  void releaseDueJobs();
  void wakeDueSuspensions();
  void settle();
  /// One dispatch-and-consume visit of processor `p` (the body of the old
  /// full settle pass); re-marks `p` dirty if anything changed.
  void settleProc(int p);
  // ----- fault-injection / containment (src/fault) -----
  /// Applies the fault plan to a compute op about to start; records the
  /// injection (counter + trace instant) the first time each kind fires
  /// for a job.
  [[nodiscard]] Duration injectedComputeLen(Job& j, Duration base);
  void noteFault(Job& j, fault::FaultKind kind, ResourceId r);
  /// Emits kFaultInjected once per processor-stall window as the clock
  /// enters it.
  void noteStallWindows();
  /// Fires every containment policy whose trigger has been reached.
  /// Returns true if anything changed (caller re-settles).
  bool applyContainment();
  /// Arms the gcs budget when `j` enters the section whose LockOp is at
  /// the current op cursor.
  void armBudget(Job& j, ResourceId r);
  /// Watchdog action: revoke `r` (and anything nested above it) from `j`.
  void forceRelease(Job& j, ResourceId r);
  /// Budget-enforce action: abort the armed gcs and descend past its V().
  void budgetKill(Job& j);
  /// True while `j`'s op cursor sits on a global Lock op — the window in
  /// which a handoff may have designated `j` holder before it re-ran to
  /// consume the grant. Aborting there would dangle the protocol's
  /// holder pointer, so the miss policy waits it out.
  [[nodiscard]] bool atGlobalLockOp(const Job& j) const;
  /// Job-abort action: retire `j` (records an aborted JobRecord).
  void abortJob(Job& j);
  /// Consumes zero-duration ops for the dispatched job on `proc`.
  /// Returns true if any op was consumed (the job's eligibility or
  /// priority may have changed, so the caller must re-dispatch).
  bool processRunnableOps(int proc);
  void noteOverrunMisses(TaskId task);
  [[nodiscard]] Job* pickHighest(int proc) const;
  void finishJob(Job& j);
  /// Earliest upcoming release/wake/segment-completion time.
  [[nodiscard]] Time nextEventTime();
  void advanceTo(Time t);
  void recordSegment(int proc, Job& j, Time begin, Time end);
  void noteDeadlineMissesAtHorizon();
  [[nodiscard]] ExecMode execModeOf(const Job& j) const;
  [[nodiscard]] StablePriorityQueue<Job*>& readyQueue(ProcessorId p) {
    return ready_[static_cast<std::size_t>(p.value())];
  }
  /// Samples the ready-queue depth for the high-water-mark counter.
  void noteReadyDepth(ProcessorId p) {
    result_.counters.noteReadyDepth(p, readyQueue(p).size());
  }
  // ----- lazy waiting-time attribution -----
  // A job's wait class (run / blocked / preempted / suspended) is
  // piecewise constant between state transitions, so instead of bumping
  // every live job's accumulator on every clock advance, the engine
  // flushes `now - mark` into the class's accumulator only when the
  // class's inputs change: the job's own phase/processor (transition
  // sites below) or its processor's dispatch signature (advanceTo's
  // per-processor sweep). The flushed sums are identical integer
  // intervals, merely grouped differently — bit-identical results.

  /// Credits the time since the slot's mark to its current class.
  void flushWait(std::uint32_t slot) {
    const Duration dt = now_ - pool_.waitMark(slot);
    if (dt > 0) {
      JobPool::Waits& w = pool_.waits(slot);
      switch (pool_.waitClass(slot)) {
        case JobPool::WaitClass::kRun:
          break;  // execution time is accounted on the running path
        case JobPool::WaitClass::kBlocked:
          w.blocked += dt;
          break;
        case JobPool::WaitClass::kPreempted:
          w.preempted += dt;
          break;
        case JobPool::WaitClass::kSuspended:
          w.suspended += dt;
          break;
      }
      pool_.setWaitMark(slot, now_);
    }
  }

  /// Recomputes the slot's wait class from its phase and its processor's
  /// dispatch signature. Callers flush first.
  void reclassifyWait(std::uint32_t slot) {
    using WC = JobPool::WaitClass;
    switch (pool_.phase(slot)) {
      case JobPool::Phase::kSuspended:
        pool_.setWaitClass(slot, WC::kSuspended);
        return;
      case JobPool::Phase::kBlocked:
        pool_.setWaitClass(slot, WC::kBlocked);
        return;
      case JobPool::Phase::kReady: {
        const auto p = static_cast<std::size_t>(pool_.procOf(slot));
        const std::int32_t rs = run_slot_[p];
        if (rs == static_cast<std::int32_t>(slot)) {
          // A dispatched spinner occupies the processor without making
          // progress: its busy-wait is blocking, not execution.
          pool_.setWaitClass(
              slot, pool_.jobAt(slot).spinning ? WC::kBlocked : WC::kRun);
        } else if (rs >= 0 && run_base_[p] > pool_.baseOf(slot)) {
          pool_.setWaitClass(slot, WC::kPreempted);
        } else {
          // Boosted lower-assigned-priority job, or an idle processor
          // while this job is ready: priority inversion.
          pool_.setWaitClass(slot, WC::kBlocked);
        }
        return;
      }
    }
  }

  /// flushWait + reclassifyWait at a transition site.
  void retimeWait(std::uint32_t slot) {
    flushWait(slot);
    reclassifyWait(slot);
  }

  // ----- per-processor running segments -----
  // The compute segment each processor is executing. The completion
  // times live in their own contiguous Time array (`seg_end_`, one
  // cache line per 8 processors, kTimeInfinity = idle) because the two
  // per-iteration loops — nextEventTime()'s min scan and advanceTo()'s
  // end==t scan — read nothing else; the {job, start} half is only
  // touched at the much rarer flush points. In lazy mode (trace off, no
  // faults armed) the running job's executed/op_remaining are not even
  // updated per advance — flushSeg() credits the elapsed run the next
  // time the processor is settled (the only point that reads them), at
  // migration, and once after the main loop. Eager mode (tracing or
  // armed) flushes every advance so traces, budgets, and fault hooks see
  // per-tick-accurate state.
  struct Seg {
    Job* job = nullptr;  ///< == running_[p]; null = idle
    Time start = 0;      ///< progress credited up to here
  };

  /// Credits `[start, t)` of p's segment to its job's executed /
  /// op_remaining and to the processor's busy total. No-op when idle or
  /// already flushed to `t`. Being the unique crediting point makes
  /// processor_busy exactly the per-processor sum of executed time, the
  /// same integer intervals the per-advance accrual summed before —
  /// advanceTo() no longer writes a vector entry per busy processor.
  void flushSeg(std::size_t p, Time t) {
    Seg& sg = seg_[p];
    if (sg.job == nullptr) return;
    const Duration run = t - sg.start;
    if (run > 0) {
      sg.job->executed += run;
      sg.job->op_remaining -= run;
      result_.processor_busy[p] += run;
      sg.start = t;
    }
  }

  /// Drops releases at/after the horizon (the old heap kept and never
  /// popped them; refusing up front keeps the wheel clean).
  void scheduleRelease(Time t, std::int32_t task_idx) {
    if (t < horizon_) release_wheel_.schedule(t, task_idx);
  }

  // ----- dirty-processor mask (settle) -----
  /// Marks `p` for (re)inspection by settle(). Every state transition
  /// that can change a dispatch decision funnels through this: ready-
  /// queue pushes/removes, running-slot changes, op progress, migrations.
  void touchProc(int p) {
    proc_dirty_[static_cast<std::size_t>(p) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(p) & 63);
  }
  void touchProc(ProcessorId p) { touchProc(p.value()); }
  void markAllProcs() {
    const int procs = system_.processorCount();
    for (int p = 0; p < procs; ++p) touchProc(p);
  }
  /// Lowest dirty processor with index >= `from`, or -1.
  [[nodiscard]] int nextDirtyProc(int from) const;

  const TaskSystem& system_;
  SyncProtocol& protocol_;
  SimConfig config_;

  Time now_ = 0;
  Time horizon_ = 0;
  bool ran_ = false;
  bool miss_seen_ = false;

  JobPool pool_;  // live jobs + slot-indexed hot state
  /// Per-processor ready set, best-first by (effective priority, arrival).
  std::vector<StablePriorityQueue<Job*>> ready_;
  std::vector<Job*> running_;  // per processor, null = idle
  /// Pending releases: calendar queue of task indices; a drained tick is
  /// sorted ascending, matching the old (time, task) heap's pop order.
  TimingWheel<std::int32_t> release_wheel_;
  /// Timed suspensions: calendar queue, sorted by seq at drain (FIFO
  /// among equal times, like the old heap).
  TimingWheel<SuspPending> susp_wheel_;
  std::vector<std::int32_t> release_batch_;  // drain scratch
  std::vector<SuspPending> susp_batch_;      // drain scratch
  std::vector<std::int64_t> instance_no_;    // per task
  std::uint64_t ready_seq_ = 0;
  std::int64_t released_count_ = 0;
  std::uint64_t susp_seq_ = 0;

  /// Per-run arena: fixed scratch buffers below are carved from it once
  /// in the constructor; nothing allocates after setup. Its one block
  /// holds exactly scratchBytes(processors).
  Arena arena_;
  [[nodiscard]] static std::size_t scratchBytes(int procs);
  std::uint64_t* proc_dirty_ = nullptr;  // dirty mask words
  std::size_t dirty_words_ = 0;
  /// Per-processor dispatch signature the current wait classifications
  /// were computed against: running job's pool slot (-1 = idle) and its
  /// assigned-priority urgency. advanceTo() re-sweeps a processor's
  /// ready set only when its signature changed.
  std::int32_t* run_slot_ = nullptr;
  std::int32_t* run_base_ = nullptr;
  Seg* seg_ = nullptr;       ///< per-processor running segment
  Time* seg_end_ = nullptr;  ///< segment completion times; idle = infinity
  /// Flush segments on every advance (tracing or fault hooks active)
  /// instead of lazily at the next settle visit.
  bool eager_ = false;

  // ----- fault-injection / containment state -----
  /// Validated non-empty plan, or nullptr. armed_ is true when either a
  /// plan or any containment policy is active; every fault hook on a hot
  /// path is gated on it so fault-free runs take the exact HEAD schedule.
  const fault::FaultPlan* plan_ = nullptr;
  bool armed_ = false;
  /// Per-resource stuck-holder watchdog (sized when the policy is on).
  struct WatchdogEntry {
    JobId holder;
    Time since = -1;  ///< holder transition time; -1 = not held
  };
  std::vector<WatchdogEntry> watchdog_;
  /// Release-jitter deferral, one outstanding entry per task at most
  /// (jitter is clamped below the period).
  struct JitterPending {
    Time at = -1;      ///< deferred (actual) release time
    Time nominal = 0;  ///< nominal release the deadline stays tied to
  };
  std::vector<JitterPending> jitter_;       // per task
  std::vector<bool> skip_next_;             // per task (skip-next-release)
  std::vector<std::int64_t> skipped_;       // per task, suppressed releases
  std::vector<bool> stall_noted_;           // per plan spec (kProcStall)
  std::vector<Job*> contain_scratch_;       // applyContainment collect pass

  SimResult result_;
};

}  // namespace mpcp
