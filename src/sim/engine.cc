#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/strf.h"

namespace mpcp {

Engine::Engine(const TaskSystem& system, SyncProtocol& protocol,
               SimConfig config)
    : system_(system),
      protocol_(protocol),
      config_(config),
      arena_(scratchBytes(system.processorCount())) {
  const int procs = system_.processorCount();
  ready_.resize(static_cast<std::size_t>(procs));
  running_.assign(static_cast<std::size_t>(procs), nullptr);

  const std::size_t n = system_.tasks().size();
  instance_no_.assign(n, 0);
  result_.processor_busy.assign(static_cast<std::size_t>(procs), 0);
  result_.counters.init(system_.resources().size(),
                        static_cast<std::size_t>(procs), n);
  result_.per_task.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result_.per_task[i].task = TaskId(static_cast<std::int32_t>(i));
  }

  if (config_.fault_plan != nullptr && !config_.fault_plan->empty()) {
    config_.fault_plan->validate(system_);
    plan_ = config_.fault_plan;
  }
  armed_ = plan_ != nullptr || config_.containment.any();
  if (armed_) {
    jitter_.assign(n, {});
    skip_next_.assign(n, false);
    skipped_.assign(n, 0);
  }
  if (config_.containment.holder_watchdog > 0) {
    watchdog_.assign(system_.resources().size(), {});
  }
  if (plan_ != nullptr && plan_->hasStalls()) {
    stall_noted_.assign(plan_->specs.size(), false);
  }

  if (config_.horizon > 0) {
    horizon_ = config_.horizon;
  } else {
    Time max_phase = 0;
    for (const Task& t : system_.tasks()) {
      max_phase = std::max(max_phase, t.phase);
    }
    const Time hp = system_.hyperperiod();
    horizon_ = (hp >= kTimeInfinity / 2) ? config_.horizon_cap
                                         : max_phase + 2 * hp;
    horizon_ = std::min(horizon_, config_.horizon_cap);
  }
  MPCP_CHECK(horizon_ > 0, "simulation horizon must be positive");

  // Initial releases (after the horizon is known: scheduleRelease drops
  // entries the run could never process, as the old heap effectively did).
  for (std::size_t i = 0; i < n; ++i) {
    scheduleRelease(system_.tasks()[i].phase, static_cast<std::int32_t>(i));
  }

  // Reserve result storage up front: the expected job count is
  // sum_i(horizon / T_i), and every releasing job appends one JobRecord
  // (and, with the trace on, a handful of events and segments). Growing
  // these vectors dominated long trace-recording runs.
  std::int64_t expected_jobs = 0;
  for (const Task& t : system_.tasks()) {
    if (t.period > 0) expected_jobs += horizon_ / t.period + 1;
  }
  expected_jobs = std::min(expected_jobs, config_.max_jobs);
  result_.jobs.reserve(static_cast<std::size_t>(expected_jobs));
  if (config_.record_trace) {
    // Events: a per-task op census. Each job emits at most
    // release/start/finish/miss plus per-op events (lock: wait + grant +
    // gcs-enter + handoff; unlock: gcs-exit + unlock; suspend: suspend +
    // resume), and causes at most 1 + suspends + 2*locks dispatch
    // changes, each emitting at most a preempt + a start on one
    // processor.
    // Segments: advanceTo() appends one segment per busy processor per
    // clock step (merging only into the globally last segment), so
    // segments <= processors * steps. A fault-free step lands on a
    // release, a suspension wake, a compute op's completion or the
    // horizon, so steps <= 1 + sum over jobs of (1 + computes +
    // suspends). Fault-armed runs add steps this does not count (stall
    // boundaries, budget and watchdog deadlines, miss checks).
    // Both are capped (with ordinary vector growth as the fallback) so
    // a degenerate op-heavy system cannot over-reserve;
    // tests/allocation_test.cc pins trace-armed runs at zero post-setup
    // allocations.
    constexpr std::int64_t kTraceReserveCap = 1 << 20;
    std::int64_t expected_events = 0;
    std::int64_t steps = 1;
    for (const Task& t : system_.tasks()) {
      if (t.period <= 0) continue;
      const std::int64_t jobs_t = horizon_ / t.period + 1;
      std::int64_t locks = 0;
      std::int64_t computes = 0;
      std::int64_t suspends = 0;
      for (const Op& op : t.body.ops()) {
        if (std::holds_alternative<LockOp>(op)) {
          ++locks;
        } else if (std::holds_alternative<ComputeOp>(op)) {
          ++computes;
        } else if (std::holds_alternative<SuspendOp>(op)) {
          ++suspends;
        }
      }
      expected_events += jobs_t * (6 + 10 * locks + 4 * suspends);
      steps += jobs_t * (1 + computes + suspends);
    }
    result_.trace.reserve(static_cast<std::size_t>(
        std::min(expected_events, kTraceReserveCap)));
    result_.segments.reserve(static_cast<std::size_t>(
        std::min(procs * steps, kTraceReserveCap / 2)));
  }

  // ----- allocation-free steady state (DESIGN.md, "Engine hot path") -----
  // Everything the run loop touches is sized here: pool slots (with
  // overrun headroom — an unfinished instance keeps its slot while the
  // next releases), per-slot held capacity (static nesting depth), ready
  // queues, calendar-queue node pools and drain batches, and the arena
  // scratch. A run that exceeds an estimate falls back to ordinary vector
  // growth rather than failing; tests/allocation_test.cc holds the line.
  std::size_t max_depth = 0;
  std::vector<std::size_t> tasks_on_proc(static_cast<std::size_t>(procs), 0);
  for (const Task& t : system_.tasks()) {
    tasks_on_proc[static_cast<std::size_t>(t.processor.value())]++;
    std::size_t depth = 0;
    std::size_t peak = 0;
    for (const Op& op : t.body.ops()) {
      if (std::holds_alternative<LockOp>(op)) {
        peak = std::max(peak, ++depth);
      } else if (std::holds_alternative<UnlockOp>(op) && depth > 0) {
        --depth;
      }
    }
    max_depth = std::max(max_depth, peak);
  }
  const std::size_t expected_live = 4 * n + 64;
  pool_.configure(n, expected_live, max_depth, /*per_task_reserve=*/8);
  for (std::size_t p = 0; p < ready_.size(); ++p) {
    ready_[p].reserve(4 * tasks_on_proc[p] + 16);
  }
  release_wheel_.reserve(2 * n + 8);
  susp_wheel_.reserve(expected_live);
  release_batch_.reserve(n + 8);
  susp_batch_.reserve(expected_live);
  if (armed_) contain_scratch_.reserve(expected_live);

  dirty_words_ = (static_cast<std::size_t>(procs) + 63) / 64;
  proc_dirty_ = arena_.allocZeroed<std::uint64_t>(dirty_words_);
  run_slot_ = arena_.alloc<std::int32_t>(static_cast<std::size_t>(procs));
  run_base_ = arena_.alloc<std::int32_t>(static_cast<std::size_t>(procs));
  seg_ = arena_.alloc<Seg>(static_cast<std::size_t>(procs));
  seg_end_ = arena_.alloc<Time>(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    run_slot_[static_cast<std::size_t>(p)] = -1;  // all idle initially
    run_base_[static_cast<std::size_t>(p)] = 0;
    seg_[static_cast<std::size_t>(p)] = {};
    seg_end_[static_cast<std::size_t>(p)] = kTimeInfinity;
  }
  MPCP_DCHECK(arena_.blockCount() == 1 &&
                  arena_.bytesUsed() == scratchBytes(procs),
              "Engine: arena scratch outgrew its first block");
  eager_ = config_.record_trace || armed_;
}

std::size_t Engine::scratchBytes(int procs) {
  static_assert(alignof(Seg) <= alignof(std::uint64_t) &&
                alignof(Time) <= alignof(std::uint64_t));
  const auto p = static_cast<std::size_t>(procs);
  // In carve order: dirty words, the two int32 signature arrays (together
  // a multiple of 8 bytes), segments, segment ends. No padding falls
  // between them.
  return (p + 63) / 64 * sizeof(std::uint64_t) +
         2 * p * sizeof(std::int32_t) + p * (sizeof(Seg) + sizeof(Time));
}

SimResult Engine::run() {
  MPCP_CHECK(!ran_, "Engine::run() may only be called once");
  ran_ = true;
  protocol_.attach(*this);

  while (true) {
    if (config_.cancel != nullptr &&
        config_.cancel->load(std::memory_order_relaxed)) {
      throw SimCancelled();
    }
    releaseDueJobs();
    wakeDueSuspensions();
    if (!stall_noted_.empty()) noteStallWindows();
    settle();
    if (armed_) {
      while (applyContainment()) settle();
    }
    if (miss_seen_ && config_.stop_on_deadline_miss) break;
    Time next = std::min(nextEventTime(), horizon_);
    if (next <= now_) break;  // now_ == horizon_: done
    advanceTo(next);
    if (now_ >= horizon_) break;
  }

  // Completions landing exactly on the horizon are still completions:
  // drain the zero-duration ops (no further time passes, and no job is
  // released at the horizon itself).
  wakeDueSuspensions();
  settle();
  if (armed_) {
    while (applyContainment()) settle();
  }
  // Credit any still-running segment its progress up to the final clock
  // (lazy mode defers this to settle visits, and an undisturbed segment
  // may span the horizon).
  for (std::size_t p = 0; p < running_.size(); ++p) flushSeg(p, now_);

  noteDeadlineMissesAtHorizon();

  // Per-task aggregates.
  for (const JobRecord& jr : result_.jobs) {
    TaskStats& st =
        result_.per_task[static_cast<std::size_t>(jr.id.task.value())];
    if (jr.finish >= 0) {
      st.jobs_finished++;
      st.max_response = std::max(st.max_response, jr.responseTime());
      st.avg_response += static_cast<double>(jr.responseTime());
      st.max_blocked = std::max(st.max_blocked, jr.blocked);
    }
    if (jr.missed) st.deadline_misses++;
  }
  for (TaskStats& st : result_.per_task) {
    if (st.jobs_finished > 0) {
      st.avg_response /= static_cast<double>(st.jobs_finished);
    }
  }
  result_.horizon = horizon_;
  result_.any_deadline_miss = miss_seen_;
  return std::move(result_);
}

void Engine::releaseDueJobs() {
  if (release_wheel_.earliest() > now_) return;
  release_wheel_.drainAt(now_, release_batch_);
  // Whole-tick batch; ascending task index matches the old heap's
  // (time, task) pop order exactly.
  std::sort(release_batch_.begin(), release_batch_.end());
  const Time due = now_;
  for (const std::int32_t task_idx : release_batch_) {
    const auto ti = static_cast<std::size_t>(task_idx);
    const Task& task = system_.tasks()[ti];

    // Fault hooks: release jitter defers the release (the deadline stays
    // tied to the nominal time), skip-next-release suppresses it outright.
    Time nominal = due;
    bool from_jitter = false;
    if (armed_) {
      if (jitter_[ti].at == due) {
        nominal = jitter_[ti].nominal;
        jitter_[ti] = {};
        from_jitter = true;
      } else if (plan_ != nullptr) {
        Duration jd = plan_->releaseJitter(task.id, instance_no_[ti]);
        jd = std::min<Duration>(jd, task.period - 1);
        if (jd > 0) {
          jitter_[ti] = {due + jd, due};
          scheduleRelease(due + jd, task_idx);
          scheduleRelease(due + task.period, task_idx);
          result_.counters.faults_injected++;
          emit({.kind = Ev::kFaultInjected,
                .job = JobId{task.id, instance_no_[ti]},
                .processor = task.processor});
          continue;
        }
      }
      if (!from_jitter && skip_next_[ti]) {
        skip_next_[ti] = false;
        skipped_[ti]++;
        result_.counters.releases_skipped++;
        result_.counters.faults_contained++;
        const JobId skipped_id{task.id, instance_no_[ti]++};
        emit({.kind = Ev::kReleaseSkipped, .job = skipped_id,
              .processor = task.processor});
        scheduleRelease(due + task.period, task_idx);
        continue;
      }
    }

    if (++released_count_ > config_.max_jobs) {
      throw InvariantError(strf("job cap exceeded (", config_.max_jobs,
                                "); runaway simulation?"));
    }
    // An unfinished previous instance past its deadline is a miss even
    // before it completes — note it as soon as the overrun is visible.
    noteOverrunMisses(task.id);

    Job& stored = pool_.allocate(JobId{task.id, instance_no_[ti]++});
    stored.host = task.processor;
    stored.current = task.processor;
    stored.release = due;
    stored.abs_deadline = nominal + task.relative_deadline;
    stored.base = task.priority;
    stored.state = JobState::kReady;
    stored.ready_seq = ++ready_seq_;
    stored.ops = task.body.ops().data();
    stored.op_count = task.body.ops().size();
    pool_.setProc(stored.pool_slot, task.processor.value());
    pool_.setBase(stored.pool_slot, task.priority.urgency());
    pool_.setWaitMark(stored.pool_slot, now_);
    reclassifyWait(stored.pool_slot);
    // A jittered release already queued the next nominal one at deferral.
    if (!from_jitter) scheduleRelease(due + task.period, task_idx);

    readyQueue(stored.current)
        .pushSeq(&stored, stored.effectivePriority(), stored.ready_seq);
    touchProc(stored.current);
    result_.counters.jobs_released++;
    noteReadyDepth(stored.current);
    if (tracing()) {
      emit({.kind = Ev::kRelease, .job = stored.id, .processor = stored.host});
    }
    protocol_.onJobReleased(stored);
  }
}

void Engine::wakeDueSuspensions() {
  if (susp_wheel_.earliest() > now_) return;
  susp_wheel_.drainAt(now_, susp_batch_);
  // FIFO among equal times, exactly the old heap's (t, seq) order.
  std::sort(susp_batch_.begin(), susp_batch_.end(),
            [](const SuspPending& a, const SuspPending& b) {
              return a.seq < b.seq;
            });
  for (const SuspPending& e : susp_batch_) {
    Job* j = e.job;
    // Stale entries (job retired, or no longer suspended to this tick)
    // are dropped silently, as the old lazily-invalidated heap did.
    if (j == nullptr || !(j->id == e.id) ||
        j->state != JobState::kWaiting || j->suspended_until != now_) {
      continue;
    }
    j->suspended_until = -1;
    if (tracing()) {
      emit({.kind = Ev::kSelfResume, .job = j->id, .processor = j->current});
    }
    wake(*j);
  }
}

void Engine::noteOverrunMisses(TaskId task) {
  // Live instances of one task, in release order — the old full live-list
  // walk filtered to this task visited them in exactly this order.
  for (const std::uint32_t s :
       pool_.taskSlots(static_cast<std::size_t>(task.value()))) {
    Job& j = pool_.jobAt(s);
    // Strictly past the deadline: a job *at* its deadline with zero work
    // left completes within this instant's settle pass and is on time
    // (the finish-time check still catches every genuine late finish).
    if (now_ > j.abs_deadline && !j.miss_noted) {
      j.miss_noted = true;
      miss_seen_ = true;
      if (result_.counters.faults_injected > 0) {
        result_.counters.misses_while_degraded++;
      }
      emit({.kind = Ev::kDeadlineMiss, .job = j.id, .processor = j.host});
    }
  }
}

Job* Engine::pickHighest(int proc) const {
  const auto& q = ready_[static_cast<std::size_t>(proc)];
  if (q.empty()) return nullptr;
  Job* best = q.peek();
  MPCP_DCHECK(best->state == JobState::kReady &&
                  best->current.value() == proc,
              "ready queue corrupt on P" << proc);
  return best;
}

int Engine::nextDirtyProc(int from) const {
  const int procs = system_.processorCount();
  if (from >= procs) return -1;
  std::size_t w = static_cast<std::size_t>(from) >> 6;
  std::uint64_t word =
      proc_dirty_[w] & (~std::uint64_t{0} << (static_cast<std::size_t>(from) & 63));
  while (true) {
    if (word != 0) {
      return static_cast<int>((w << 6) +
                              static_cast<std::size_t>(std::countr_zero(word)));
    }
    if (++w >= dirty_words_) return -1;
    word = proc_dirty_[w];
  }
}

void Engine::settle() {
  // Visit dirty processors in ascending order; a visit that changes
  // anything re-marks the processors it affected, and marks at or below
  // the cursor wait for the next scan. This replays the old full-pass
  // fixed point exactly: a pass visited every processor ascending, but
  // visits whose inputs had not changed were no-ops — the dirty mask
  // skips precisely those, so the sequence of *effective* visits (and
  // hence every emitted event) is identical.
  if (armed_) markAllProcs();  // fault hooks may act at a distance
  int cursor = 0;
  while (true) {
    const int p = nextDirtyProc(cursor);
    if (p < 0) {
      if (cursor == 0) return;  // a full scan found nothing: quiescent
      cursor = 0;               // wrap for the next scan
      continue;
    }
    proc_dirty_[static_cast<std::size_t>(p) >> 6] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(p) & 63));
    settleProc(p);
    cursor = p + 1;
  }
}

void Engine::settleProc(int p) {
  const auto pi = static_cast<std::size_t>(p);
  // Bring the running job's executed/op_remaining up to date before any
  // dispatch decision reads them (no-op in eager mode).
  flushSeg(pi, now_);
  // A transiently stalled processor dispatches nothing: its jobs stay
  // ready and the waiting time is attributed as blocking.
  Job* j = (!stall_noted_.empty() && plan_->stalled(ProcessorId(p), now_))
               ? nullptr
               : pickHighest(p);
  bool changed = false;
  if (j != running_[pi]) {
    Job* old = running_[pi];
    if (old != nullptr && old->state == JobState::kReady) {
      result_.counters.preemptions++;
      if (j != nullptr && j->elevated != kPriorityFloor) {
        result_.counters.gcs_preemptions++;
      }
      if (tracing()) {
        emit({.kind = Ev::kPreempt, .job = old->id,
              .processor = ProcessorId(p), .other = j ? j->id : JobId{}});
      }
    }
    running_[pi] = j;
    if (j != nullptr && tracing()) {
      emit({.kind = Ev::kStart, .job = j->id, .processor = ProcessorId(p)});
    }
    changed = true;
  }
  if (running_[pi] != nullptr) {
    // Any consumed op (lock, unlock, completion) can change priorities
    // or eligibility anywhere, so revisit this processor until stable.
    changed |= processRunnableOps(p);
    if (running_[pi] == nullptr ||
        running_[pi]->state != JobState::kReady) {
      changed = true;  // job finished or parked; re-dispatch
      running_[pi] = nullptr;
    }
  }
  // Re-anchor the processor's segment record to the (possibly new)
  // running job. Mid-settle a dispatched job can sit at a Lock op after
  // a yield (op_remaining <= 0) — the pass re-visits p before
  // convergence (changed is true) and re-anchors; at convergence every
  // running job is mid-ComputeOp.
  Job* rj = running_[pi];
  if (rj != nullptr && rj->op_remaining > 0) {
    seg_[pi] = {rj, now_};
    seg_end_[pi] = now_ + rj->op_remaining;
  } else {
    seg_[pi].job = nullptr;
    seg_end_[pi] = kTimeInfinity;
  }
  // Refresh the dispatch signature; when occupancy changed, the wait
  // classes of this processor's ready set were computed against stale
  // inputs — flush (zero elapsed within the instant) and reclassify
  // them. The ready queue holds exactly the Phase::kReady jobs of p,
  // including the running one. Doing this here keeps advanceTo() free of
  // per-Job dereferences.
  const std::int32_t rs =
      rj != nullptr ? static_cast<std::int32_t>(rj->pool_slot) : -1;
  const std::int32_t rb = rj != nullptr ? rj->base.urgency() : 0;
  if (rs != run_slot_[pi] || (rs >= 0 && rb != run_base_[pi])) {
    run_slot_[pi] = rs;
    run_base_[pi] = rb;
    for (const auto& e : ready_[pi].entries()) {
      retimeWait(e.value->pool_slot);
    }
  }
  if (changed) touchProc(p);
}

bool Engine::processRunnableOps(int proc) {
  Job*& slot = running_[static_cast<std::size_t>(proc)];
  bool progress = false;
  while (slot != nullptr && slot->state == JobState::kReady) {
    Job& j = *slot;

    if (j.op_index >= j.op_count) {
      finishJob(j);
      slot = nullptr;
      return true;
    }

    const Op& op = j.ops[j.op_index];
    if (const auto* c = std::get_if<ComputeOp>(&op)) {
      if (j.op_remaining < 0) {
        j.op_remaining = plan_ != nullptr ? injectedComputeLen(j, c->duration)
                                          : c->duration;
      }
      if (j.op_remaining > 0) return progress;  // needs clock time
      j.op_index++;
      j.op_remaining = -1;
      progress = true;
      continue;
    }
    if (const auto* l = std::get_if<LockOp>(&op)) {
      // An earlier op in this drain (an unlock dropping j's elevation or
      // inheritance, a handoff elevating a peer) may have left a strictly
      // higher-priority job ready here. A real V() reevaluates scheduling
      // before the task can issue its next P(), so yield instead of
      // letting back-to-back critical sections run atomically — the F5
      // blocking bound's once-per-resume argument depends on exactly this
      // preemption point.
      if (progress) {
        Job* top = pickHighest(proc);
        if (top != nullptr && top != &j &&
            top->effectivePriority() > j.effectivePriority()) {
          return true;  // j stays ready; settle() dispatches the preemptor
        }
      }
      const LockOutcome outcome = protocol_.onLock(j, l->resource);
      if (outcome == LockOutcome::kGranted) {
        result_.counters.res(l->resource).acquisitions++;
        j.held.push_back(l->resource);
        if (config_.containment.budget_enforce &&
            system_.isGlobal(l->resource)) {
          armBudget(j, l->resource);
        }
        j.op_index++;
        if (tracing()) {
          emit({.kind = Ev::kLockGrant, .job = j.id, .processor = j.current,
                .resource = l->resource});
        }
        progress = true;
        continue;
      }
      if (outcome == LockOutcome::kSpinning) {
        // Busy-wait: the job keeps the processor (the protocol elevated
        // it into a non-preemptive band) but the op cursor stalls here.
        // Return without re-marking the processor dirty on an idempotent
        // revisit — the grant (noteSpinGranted) re-touches it.
        MPCP_CHECK(j.spinning && j.state == JobState::kReady,
                   protocol_.name()
                       << " returned kSpinning for " << j.id << " on "
                       << l->resource << " without parkSpinning");
        return progress;
      }
      MPCP_CHECK(j.state == JobState::kWaiting,
                 protocol_.name()
                     << " returned kWaiting for " << j.id << " on "
                     << l->resource << " without parking the job");
      return true;
    }
    if (const auto* susp = std::get_if<SuspendOp>(&op)) {
      MPCP_CHECK(j.held.empty(),
                 j.id << " self-suspending while holding a semaphore");
      j.op_index++;
      j.suspended_until = now_ + susp->duration;
      j.state = JobState::kWaiting;
      pool_.setPhase(j.pool_slot, JobPool::Phase::kSuspended);
      retimeWait(j.pool_slot);
      readyQueue(j.current).remove(&j);
      // Wakes past the horizon can never fire (the run ends first); the
      // old heap kept and never popped them.
      if (j.suspended_until <= horizon_) {
        susp_wheel_.schedule(j.suspended_until, {++susp_seq_, &j, j.id});
      } else {
        ++susp_seq_;  // keep the stamp stream identical either way
      }
      if (tracing()) {
        emit({.kind = Ev::kSelfSuspend, .job = j.id, .processor = j.current});
      }
      slot = nullptr;
      touchProc(j.current);
      return true;
    }
    const auto& u = std::get<UnlockOp>(op);
    if (armed_) {
      // The watchdog already revoked this semaphore: its V() is a no-op.
      const auto fr = std::find(j.force_released.begin(),
                                j.force_released.end(), u.resource);
      if (fr != j.force_released.end()) {
        j.force_released.erase(fr);
        j.op_index++;
        j.op_remaining = -1;
        progress = true;
        continue;
      }
      if (plan_ != nullptr && !j.held.empty() && j.held.back() == u.resource &&
          plan_->stuckAt(j.id.task, j.id.instance, u.resource)) {
        // Stuck holder: never executes this V() — burn clock time at the
        // unlock site until the horizon (or until a watchdog revocation
        // consumes the op from under us).
        noteFault(j, fault::FaultKind::kStuckHolder, u.resource);
        if (j.op_remaining <= 0) j.op_remaining = horizon_ - now_ + 1;
        return progress;
      }
    }
    MPCP_CHECK(!j.held.empty() && j.held.back() == u.resource,
               j.id << " unlocking " << u.resource
                    << " which is not its innermost held semaphore");
    protocol_.onUnlock(j, u.resource);
    j.held.pop_back();
    if (j.gcs_budget >= 0 && u.resource == j.gcs_resource) {
      j.gcs_budget = -1;  // section completed within budget: disarm
      j.gcs_consumed = 0;
    }
    j.op_index++;
    progress = true;
  }
  return progress;
}

void Engine::finishJob(Job& j) {
  MPCP_CHECK(j.held.empty(),
             j.id << " finished while holding " << j.held.size()
                  << " semaphore(s)");
  j.state = JobState::kFinished;
  j.finish = now_;
  readyQueue(j.current).remove(&j);

  if (tracing()) {
    emit({.kind = Ev::kFinish, .job = j.id, .processor = j.current});
  }
  const bool missed = j.finish > j.abs_deadline;
  if (missed && !j.miss_noted) {
    j.miss_noted = true;
    if (result_.counters.faults_injected > 0) {
      result_.counters.misses_while_degraded++;
    }
    emit({.kind = Ev::kDeadlineMiss, .job = j.id, .processor = j.current});
  }
  if (missed) miss_seen_ = true;
  result_.counters.jobs_finished++;
  if (missed) result_.counters.deadline_misses++;
  flushWait(j.pool_slot);
  const JobPool::Waits w = pool_.waits(j.pool_slot);
  result_.counters.recordBlocking(j.id.task, w.blocked);

  // Any pending suspension entry for j goes stale here (state kFinished)
  // and is dropped at its drain tick.
  protocol_.onJobFinished(j);

  result_.jobs.push_back({.id = j.id,
                          .release = j.release,
                          .abs_deadline = j.abs_deadline,
                          .finish = j.finish,
                          .executed = j.executed,
                          .blocked = w.blocked,
                          .preempted = w.preempted,
                          .suspended = w.suspended,
                          .missed = missed});
  // Retire storage: recycle the pool slot.
  pool_.release(j);
}

Time Engine::nextEventTime() {
  Time next = release_wheel_.earliest();
  next = std::min(next, susp_wheel_.earliest());
  for (std::size_t p = 0; p < running_.size(); ++p) {
    MPCP_DCHECK(seg_[p].job == nullptr || seg_end_[p] > now_,
                "stale segment on P" << p);
    next = std::min(next, seg_end_[p]);
  }
  if (armed_) {
    const fault::ContainmentConfig& cc = config_.containment;
    if (!stall_noted_.empty()) {
      next = std::min(next, plan_->nextStallBoundary(now_));
    }
    if (cc.budget_enforce) {
      for (const Job* j : running_) {
        if (j != nullptr && j->gcs_budget >= 0) {
          next = std::min(next,
                          now_ + std::max<Duration>(
                                     1, j->gcs_budget + 1 - j->gcs_consumed));
        }
      }
    }
    if (cc.holder_watchdog > 0) {
      for (const WatchdogEntry& w : watchdog_) {
        if (w.since < 0) continue;
        const Time fire = w.since > kTimeInfinity - cc.holder_watchdog
                              ? kTimeInfinity
                              : w.since + cc.holder_watchdog;
        next = std::min(next, std::max(now_ + 1, fire));
      }
    }
    if (cc.on_miss != fault::MissAction::kNone) {
      pool_.forEachLive([&](Job& j) {
        if (j.miss_policy_applied) return;
        next = std::min(next, std::max(now_ + 1, j.abs_deadline + 1));
      });
    }
  }
  return next;
}

void Engine::advanceTo(Time t) {
  const Duration dt = t - now_;
  MPCP_CHECK(dt > 0, "advanceTo must move forward");

  // Dispatch signatures, wait classes, and busy accrual are all
  // maintained at settle/flush time — in lazy mode this loop only scans
  // the contiguous completion-time array (idle = infinity, never == t)
  // and marks processors whose segment completes at `t`.
  if (eager_) {
    for (std::size_t p = 0; p < running_.size(); ++p) {
      Job* j = seg_[p].job;
      if (j == nullptr) continue;
      MPCP_DCHECK(j == running_[p] && seg_end_[p] >= t,
                  "segment overrun for " << j->id);
      flushSeg(p, t);
      if (armed_ && j->gcs_budget >= 0) j->gcs_consumed += dt;
      recordSegment(static_cast<int>(p), *j, now_, t);
      if (seg_end_[p] == t) touchProc(static_cast<int>(p));
    }
  } else {
    for (std::size_t p = 0; p < running_.size(); ++p) {
      MPCP_DCHECK(seg_[p].job == nullptr ||
                      (seg_[p].job == running_[p] && seg_end_[p] >= t),
                  "segment overrun on P" << p);
      if (seg_end_[p] == t) touchProc(static_cast<int>(p));
    }
  }

  now_ = t;
}

void Engine::recordSegment(int proc, Job& j, Time begin, Time end) {
  if (!config_.record_trace) return;
  const ExecMode mode = execModeOf(j);
  if (!result_.segments.empty()) {
    ExecSegment& last = result_.segments.back();
    if (last.processor.value() == proc && last.job == j.id &&
        last.mode == mode && last.end == begin) {
      last.end = end;
      return;
    }
  }
  result_.segments.push_back({.processor = ProcessorId(proc),
                              .job = j.id,
                              .begin = begin,
                              .end = end,
                              .mode = mode});
}

ExecMode Engine::execModeOf(const Job& j) const {
  if (j.elevated != kPriorityFloor) return ExecMode::kGcs;
  if (!j.held.empty()) return ExecMode::kLocalCs;
  return ExecMode::kNormal;
}

void Engine::noteDeadlineMissesAtHorizon() {
  pool_.forEachLive([&](Job& j) {
    const bool missed = j.abs_deadline <= horizon_;
    if (missed) {
      miss_seen_ = true;
      result_.counters.deadline_misses++;
      if (!j.miss_noted && result_.counters.faults_injected > 0) {
        result_.counters.misses_while_degraded++;
      }
    }
    flushWait(j.pool_slot);
    const JobPool::Waits w = pool_.waits(j.pool_slot);
    result_.jobs.push_back({.id = j.id,
                            .release = j.release,
                            .abs_deadline = j.abs_deadline,
                            .finish = -1,
                            .executed = j.executed,
                            .blocked = w.blocked,
                            .preempted = w.preempted,
                            .suspended = w.suspended,
                            .missed = missed});
  });
  for (std::size_t i = 0; i < instance_no_.size(); ++i) {
    result_.per_task[i].jobs_released =
        instance_no_[i] - (armed_ ? skipped_[i] : 0);
  }
}

// ----- fault-injection / containment (src/fault) -----

Duration Engine::injectedComputeLen(Job& j, Duration base) {
  const ResourceId inner = j.held.empty() ? ResourceId{} : j.held.back();
  const fault::ComputeEffect eff = plan_->computeEffect(
      j.id.task, j.id.instance, base, inner, !j.wcet_delta_applied);
  if (eff.delta_used) j.wcet_delta_applied = true;
  if ((eff.kinds & fault::bitOf(fault::FaultKind::kWcetOverrun)) != 0) {
    noteFault(j, fault::FaultKind::kWcetOverrun, ResourceId{});
  }
  if ((eff.kinds & fault::bitOf(fault::FaultKind::kCsOverrun)) != 0) {
    noteFault(j, fault::FaultKind::kCsOverrun, inner);
  }
  return eff.duration;
}

void Engine::noteFault(Job& j, fault::FaultKind kind, ResourceId r) {
  const std::uint32_t bit = fault::bitOf(kind);
  if ((j.faults_noted & bit) != 0) return;  // once per kind per job
  j.faults_noted |= bit;
  result_.counters.faults_injected++;
  emit({.kind = Ev::kFaultInjected, .job = j.id, .processor = j.current,
        .resource = r});
}

void Engine::noteStallWindows() {
  for (std::size_t i = 0; i < stall_noted_.size(); ++i) {
    const fault::FaultSpec& s = plan_->specs[i];
    if (stall_noted_[i] || s.kind != fault::FaultKind::kProcStall) continue;
    if (s.start <= now_ && now_ < s.start + s.length) {
      stall_noted_[i] = true;
      result_.counters.faults_injected++;
      emit({.kind = Ev::kFaultInjected, .processor = s.processor});
    }
  }
}

void Engine::noteGlobalHolder(ResourceId r, const Job* holder) {
  if (config_.containment.holder_watchdog <= 0) return;
  if (!system_.isGlobal(r)) return;
  WatchdogEntry& w = watchdog_[static_cast<std::size_t>(r.value())];
  if (holder == nullptr) {
    w = {};
    return;
  }
  if (w.since >= 0 && w.holder == holder->id) return;  // unchanged holder
  w.holder = holder->id;
  w.since = now_;
}

bool Engine::applyContainment() {
  bool fired = false;
  const fault::ContainmentConfig& cc = config_.containment;

  if (cc.holder_watchdog > 0) {
    for (std::size_t r = 0; r < watchdog_.size(); ++r) {
      WatchdogEntry& w = watchdog_[r];
      if (w.since < 0 || now_ - w.since < cc.holder_watchdog) continue;
      Job* h = pool_.find(w.holder);
      if (h == nullptr) {  // holder retired without a transition report
        w = {};
        continue;
      }
      if (h->state != JobState::kReady) continue;  // retry at a safe point
      forceRelease(*h, ResourceId(static_cast<std::int32_t>(r)));
      fired = true;
    }
  }

  if (cc.budget_enforce) {
    // Collect first: budgetKill hands the semaphore off and wakes peers,
    // which must not perturb this sweep.
    contain_scratch_.clear();
    pool_.forEachLive([&](Job& j) {
      if (j.gcs_budget >= 0 && j.gcs_consumed > j.gcs_budget &&
          j.state == JobState::kReady) {
        contain_scratch_.push_back(&j);
      }
    });
    for (Job* j : contain_scratch_) {
      budgetKill(*j);
      fired = true;
    }
  }

  if (cc.on_miss != fault::MissAction::kNone) {
    contain_scratch_.clear();
    pool_.forEachLive([&](Job& j) {
      if (now_ > j.abs_deadline && !j.miss_policy_applied) {
        j.miss_policy_applied = true;
        if (!j.miss_noted) {
          j.miss_noted = true;
          miss_seen_ = true;
          if (result_.counters.faults_injected > 0) {
            result_.counters.misses_while_degraded++;
          }
          emit({.kind = Ev::kDeadlineMiss, .job = j.id, .processor = j.host});
        }
        if (cc.on_miss == fault::MissAction::kSkipNextRelease) {
          skip_next_[static_cast<std::size_t>(j.id.task.value())] = true;
        } else {
          j.abort_pending = true;
        }
      }
      // Abort only at a safe point: ready and holding nothing (aborting a
      // holder or a queued waiter would corrupt protocol state). A job
      // parked at a global Lock op may already be the *designated* holder
      // — rule 7 hands the semaphore over before the job re-dispatches to
      // consume the grant, and held stays empty across that gap — so
      // defer until the cursor moves past the op (the abort then fires
      // after its V(), when the job provably holds nothing).
      // A spinner is likewise unsafe: it sits in the protocol's spin
      // queue (or is the designated holder mid-handoff) by Job pointer.
      if (j.abort_pending && j.state == JobState::kReady && j.held.empty() &&
          !j.spinning && !atGlobalLockOp(j)) {
        contain_scratch_.push_back(&j);
      }
    });
    for (Job* j : contain_scratch_) {
      abortJob(*j);
      fired = true;
    }
  }
  return fired;
}

void Engine::armBudget(Job& j, ResourceId r) {
  for (const CriticalSection& cs : system_.task(j.id.task).sections) {
    if (cs.lock_index != j.op_index) continue;
    MPCP_CHECK(cs.resource == r,
               "budget arming: section at op " << j.op_index
                                               << " locks a different semaphore");
    j.gcs_budget = std::llround(static_cast<double>(cs.duration) *
                                config_.containment.grace);
    j.gcs_consumed = 0;
    j.gcs_resource = r;
    j.gcs_unlock_index = cs.unlock_index;
    return;
  }
}

void Engine::forceRelease(Job& j, ResourceId r) {
  emit({.kind = Ev::kForcedRelease, .job = j.id, .processor = j.current,
        .resource = r});
  result_.counters.forced_releases++;
  result_.counters.faults_contained++;
  if (std::find(j.held.begin(), j.held.end(), r) == j.held.end()) {
    // The semaphore was handed to j but j has not re-dispatched to consume
    // the grant: revoke it at the protocol level only. j's pending P()
    // simply re-queues when it next runs.
    protocol_.onUnlock(j, r);
    touchProc(j.current);
    return;
  }
  while (!j.held.empty()) {
    const ResourceId top = j.held.back();
    protocol_.onUnlock(j, top);
    j.held.pop_back();
    if (j.gcs_budget >= 0 && top == j.gcs_resource) {
      j.gcs_budget = -1;
      j.gcs_consumed = 0;
    }
    const auto* u = j.op_index < j.op_count
                        ? std::get_if<UnlockOp>(&j.ops[j.op_index])
                        : nullptr;
    if (u != nullptr && u->resource == top) {
      // The job sits right at this V() (a stuck holder burning time):
      // consume the op so the rest of the body can run.
      j.op_index++;
      j.op_remaining = -1;
    } else {
      j.force_released.push_back(top);
    }
    if (top == r) break;
  }
  touchProc(j.current);
}

void Engine::budgetKill(Job& j) {
  MPCP_CHECK(j.gcs_budget >= 0, "budgetKill on unarmed job " << j.id);
  const ResourceId r = j.gcs_resource;
  emit({.kind = Ev::kBudgetKill, .job = j.id, .processor = j.current,
        .resource = r});
  result_.counters.budget_kills++;
  result_.counters.faults_contained++;
  while (!j.held.empty()) {
    const ResourceId top = j.held.back();
    protocol_.onUnlock(j, top);
    j.held.pop_back();
    if (top == r) break;
  }
  // Descend: skip the rest of the section body and its V().
  j.op_index = j.gcs_unlock_index + 1;
  j.op_remaining = -1;
  j.gcs_budget = -1;
  j.gcs_consumed = 0;
  touchProc(j.current);
}

bool Engine::atGlobalLockOp(const Job& j) const {
  if (j.op_index >= j.op_count) return false;
  const auto* lock = std::get_if<LockOp>(&j.ops[j.op_index]);
  return lock != nullptr && system_.isGlobal(lock->resource);
}

void Engine::abortJob(Job& j) {
  MPCP_CHECK(j.held.empty(), "abortJob on holder " << j.id);
  emit({.kind = Ev::kJobAbort, .job = j.id, .processor = j.current});
  j.state = JobState::kFinished;
  readyQueue(j.current).remove(&j);
  auto& slot = running_[static_cast<std::size_t>(j.current.value())];
  if (slot == &j) {
    slot = nullptr;
    seg_[static_cast<std::size_t>(j.current.value())].job = nullptr;
    seg_end_[static_cast<std::size_t>(j.current.value())] = kTimeInfinity;
  }
  result_.counters.jobs_aborted++;
  result_.counters.faults_contained++;
  result_.counters.deadline_misses++;
  flushWait(j.pool_slot);
  const JobPool::Waits w = pool_.waits(j.pool_slot);
  result_.counters.recordBlocking(j.id.task, w.blocked);
  protocol_.onJobFinished(j);
  result_.jobs.push_back({.id = j.id,
                          .release = j.release,
                          .abs_deadline = j.abs_deadline,
                          .finish = -1,
                          .executed = j.executed,
                          .blocked = w.blocked,
                          .preempted = w.preempted,
                          .suspended = w.suspended,
                          .missed = true,
                          .aborted = true});
  touchProc(j.current);
  pool_.release(j);
}

void Engine::parkWaiting(Job& j, ResourceId r, JobId blocker) {
  MPCP_CHECK(j.state == JobState::kReady,
             "parkWaiting on non-ready job " << j.id);
  j.state = JobState::kWaiting;
  j.waiting_for = r;
  pool_.setPhase(j.pool_slot, JobPool::Phase::kBlocked);
  retimeWait(j.pool_slot);
  result_.counters.res(r).contended_waits++;
  readyQueue(j.current).remove(&j);
  if (running_[static_cast<std::size_t>(j.current.value())] == &j) {
    running_[static_cast<std::size_t>(j.current.value())] = nullptr;
    seg_[static_cast<std::size_t>(j.current.value())].job = nullptr;
    seg_end_[static_cast<std::size_t>(j.current.value())] = kTimeInfinity;
  }
  if (tracing()) {
    emit({.kind = Ev::kLockWait, .job = j.id, .processor = j.current,
          .resource = r, .other = blocker});
  }
  touchProc(j.current);
}

void Engine::parkSpinning(Job& j, ResourceId r, JobId blocker) {
  MPCP_CHECK(j.state == JobState::kReady,
             "parkSpinning on non-ready job " << j.id);
  MPCP_CHECK(!j.spinning, "parkSpinning on already-spinning job " << j.id);
  j.spinning = true;
  j.waiting_for = r;
  // The job stays kReady, queued, and (once dispatched) running_: it
  // occupies the processor without op progress. Its wait class flips to
  // blocked so busy-wait time is attributed like any other lock wait.
  retimeWait(j.pool_slot);
  result_.counters.res(r).contended_waits++;
  if (tracing()) {
    emit({.kind = Ev::kLockWait, .job = j.id, .processor = j.current,
          .resource = r, .other = blocker});
  }
  touchProc(j.current);
}

void Engine::noteSpinGranted(Job& j) {
  MPCP_CHECK(j.spinning, "noteSpinGranted on non-spinning job " << j.id);
  j.spinning = false;
  j.waiting_for = ResourceId();
  retimeWait(j.pool_slot);
  touchProc(j.current);
}

void Engine::wake(Job& j) {
  MPCP_CHECK(j.state == JobState::kWaiting, "wake on non-waiting " << j.id);
  j.state = JobState::kReady;
  j.waiting_for = ResourceId();
  j.ready_seq = ++ready_seq_;
  pool_.setPhase(j.pool_slot, JobPool::Phase::kReady);
  retimeWait(j.pool_slot);
  readyQueue(j.current).pushSeq(&j, j.effectivePriority(), j.ready_seq);
  noteReadyDepth(j.current);
  touchProc(j.current);
}

void Engine::migrate(Job& j, ProcessorId target) {
  if (j.current == target) return;
  result_.counters.migrations++;
  readyQueue(j.current).remove(&j);
  if (running_[static_cast<std::size_t>(j.current.value())] == &j) {
    const auto p = static_cast<std::size_t>(j.current.value());
    flushSeg(p, now_);  // preserve mid-segment progress across the move
    running_[p] = nullptr;
    seg_[p].job = nullptr;
    seg_end_[p] = kTimeInfinity;
  }
  if (tracing()) {
    emit({.kind = Ev::kMigrate, .job = j.id, .processor = target});
  }
  touchProc(j.current);
  j.current = target;
  pool_.setProc(j.pool_slot, target.value());
  retimeWait(j.pool_slot);
  if (j.state == JobState::kReady) {
    // Keep the original arrival stamp: a migrating job does not lose its
    // FCFS position among equal priorities.
    readyQueue(target).pushSeq(&j, j.effectivePriority(), j.ready_seq);
    noteReadyDepth(target);
  }
  touchProc(target);
}

void Engine::restampArrival(Job& j) {
  j.ready_seq = ++ready_seq_;
  if (j.state == JobState::kReady) {
    auto& q = readyQueue(j.current);
    if (q.remove(&j)) {
      q.pushSeq(&j, j.effectivePriority(), j.ready_seq);
    }
    touchProc(j.current);
  }
}

void Engine::notePriorityChanged(Job& j) {
  if (j.state != JobState::kReady) return;  // re-keyed on wake()
  auto& q = readyQueue(j.current);
  [[maybe_unused]] const bool was_queued = q.remove(&j);
  MPCP_DCHECK(was_queued,
              "notePriorityChanged: ready job " << j.id
                                                << " missing from queue");
  q.pushSeq(&j, j.effectivePriority(), j.ready_seq);
  touchProc(j.current);
}

void Engine::emit(TraceEvent e) {
  if (!config_.record_trace) return;
  e.t = now_;
  result_.trace.push_back(e);
}

Job* Engine::findJob(JobId id) { return pool_.find(id); }

}  // namespace mpcp
