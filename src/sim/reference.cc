#include "sim/reference.h"

#include <algorithm>
#include <deque>
#include <map>

#include "analysis/ceilings.h"
#include "common/check.h"
#include "common/strf.h"

namespace mpcp {

namespace {

struct RJob {
  JobId id;
  const Task* task = nullptr;
  Time release = 0;
  Time deadline = 0;
  std::size_t op = 0;          // index into body ops
  Duration done_in_op = 0;     // progress inside the current ComputeOp
  Time wake_at = -1;           // voluntary suspension end, -1 if none
  bool queued = false;         // in a semaphore queue (suspended or spinning)
  bool parked_local = false;   // ceiling-blocked on a local semaphore
  bool finished = false;
  std::vector<ResourceId> held;
  std::uint64_t eligible_seq = 0;  // FCFS tie-break, stamped on eligibility
  // Fault mirroring (inert without a plan/watchdog):
  Duration cur_len = -1;             // injected length of the current compute
  bool wcet_delta_applied = false;   // one-shot WCET delta consumed
  std::uint32_t faults_noted = 0;    // fault::bitOf mask already counted
  std::vector<ResourceId> force_released;  // revoked; pending V()s are no-ops
};

struct Semaphore {
  RJob* holder = nullptr;
  std::deque<RJob*> queue;  // arrival order; the grant order picks from it
  Time since = -1;          // last holder transition (watchdog clock)
};

}  // namespace

ReferenceResult simulateReference(ProtocolKind kind, const TaskSystem& sys,
                                  Time horizon, const fault::FaultPlan* plan,
                                  Duration holder_watchdog) {
  // Wait mode: a blocked mpcp or dpcp job suspends; a spin job
  // busy-waits. Grant order: spin-fifo serves arrivals in order; the rest
  // serve the first highest base priority. Under dpcp (message) a gcs
  // runs on its semaphore's synchronization processor at the ceiling.
  bool spin = false;
  bool fifo = false;
  bool message = false;
  switch (kind) {
    case ProtocolKind::kMpcp:
      break;
    case ProtocolKind::kDpcp:
      message = true;
      break;
    case ProtocolKind::kSpinFifo:
      fifo = true;
      [[fallthrough]];
    case ProtocolKind::kSpinPrio:
      spin = true;
      break;
    default:
      throw ConfigError(
          "reference: only mpcp, dpcp, spin-fifo and spin-prio are "
          "simulated");
  }
  if (plan != nullptr && plan->empty()) plan = nullptr;
  if (spin || message) {
    if (plan != nullptr || holder_watchdog > 0) {
      throw ConfigError(
          "reference: faults and the holder watchdog are mirrored for mpcp "
          "only");
    }
    // Spin: flat sections only, like SpinProtocol. Dpcp: no nesting that
    // involves a global section (local PCP nests are fine).
    for (const Task& t : sys.tasks()) {
      for (const CriticalSection& cs : t.sections) {
        if (cs.parent < 0) continue;
        const ResourceId outer =
            t.sections[static_cast<std::size_t>(cs.parent)].resource;
        if (message && !sys.isGlobal(cs.resource) && !sys.isGlobal(outer)) {
          continue;
        }
        throw ConfigError(strf(spin ? "spin" : "dpcp",
                               " reference: nested critical section in ",
                               t.name, " (", cs.resource, ")"));
      }
    }
  }
  if (plan != nullptr) plan->validate(sys);

  const PriorityTables tables(sys);
  const int procs = sys.processorCount();

  std::vector<Time> next_release(sys.tasks().size());
  std::vector<std::int64_t> instance(sys.tasks().size(), 0);
  // Deferred (jittered) releases: at most one outstanding per task since
  // jitter is clamped below the period.
  std::vector<Time> jit_at(sys.tasks().size(), -1);
  std::vector<Time> jit_nominal(sys.tasks().size(), 0);
  for (const Task& t : sys.tasks()) {
    next_release[static_cast<std::size_t>(t.id.value())] = t.phase;
  }

  std::deque<RJob> jobs;  // stable addresses
  std::map<std::int32_t, Semaphore> sems;
  std::uint64_t seq = 0;
  // Jobs whose local lock attempt was ceiling-blocked, per processor, in
  // attempt order. The engine parks these out of the ready queue and
  // re-wakes them (with a *fresh* arrival stamp) on the next local unlock
  // on that processor; mirroring both halves keeps same-priority FIFO
  // tie-breaks — a woken waiter vs a job released at the same instant —
  // bit-identical to the engine.
  std::vector<std::vector<RJob*>> parked_local_q(
      static_cast<std::size_t>(procs));

  ReferenceResult result;
  result.counters.init(sys.resources().size(),
                       static_cast<std::size_t>(procs), sys.tasks().size());

  // ---- helpers over the mutable state ---------------------------------
  const auto opsOf = [&](const RJob& j) -> const std::vector<Op>& {
    return j.task->body.ops();
  };
  // Semaphores with a holder and a wait queue: MPCP's global ones, and
  // every resource under spinning. MPCP's local ones follow PCP instead.
  const auto queuedLock = [&](ResourceId r) {
    return spin || sys.isGlobal(r);
  };
  // Jobs competing for their processor. A suspended waiter leaves the
  // ready set; a spinner stays in it and burns the processor.
  const auto ready = [&](const RJob& j) {
    return !j.finished && j.wake_at < 0 && !j.parked_local &&
           (spin || !j.queued);
  };
  // Processor a job competes on: its host, except that a dpcp job inside
  // a gcs runs on the semaphore's synchronization processor.
  const auto procOf = [&](const RJob& j) {
    if (message) {
      for (ResourceId r : j.held) {
        if (sys.isGlobal(r)) return sys.resource(r).sync_processor->value();
      }
    }
    return j.task->processor.value();
  };

  // Effective priority. Spin: the non-preemptive band while spinning or
  // holding — any value above every task priority orders identically, so
  // the band base works (the engine uses globalBase + max urgency + 1).
  // MPCP: base, PCP inheritance (the inherited map, recomputed from
  // scratch on demand), gcs elevation from held globals — gcsPriority on
  // the host under mpcp, the full ceiling under dpcp.
  const Priority np = Priority(1).inGlobalBand(sys.globalBase());
  std::map<const RJob*, Priority> inherited;
  const auto effective = [&](const RJob& j) {
    if (spin) return (j.queued || !j.held.empty()) ? np : j.task->priority;
    Priority pr = j.task->priority;
    const auto it = inherited.find(&j);
    if (it != inherited.end()) pr = std::max(pr, it->second);
    for (ResourceId r : j.held) {
      if (sys.isGlobal(r)) {
        pr = std::max(pr, message ? tables.ceiling(r)
                                  : tables.gcsPriority(r, j.task->processor));
      }
    }
    return pr;
  };
  // Highest-ceiling local semaphore held by someone other than j on
  // processor p; returns the holder (nullptr if no such semaphore).
  const auto blockerFor = [&](int p, const RJob& j,
                              Priority* ceiling) -> RJob* {
    RJob* blocker = nullptr;
    *ceiling = kPriorityFloor;
    for (RJob& h : jobs) {
      if (h.finished || &h == &j || h.task->processor.value() != p) continue;
      for (ResourceId r : h.held) {
        if (sys.isGlobal(r)) continue;
        const Priority c = tables.ceiling(r);
        if (blocker == nullptr || c > *ceiling) {
          blocker = &h;
          *ceiling = c;
        }
      }
    }
    return blocker;
  };
  // Declarative PCP inheritance: a job whose local lock attempt parked on
  // the ceiling test donates its priority to the blocking holder,
  // transitively. Only a job that actually attempted the lock and parked
  // donates (the engine's LocalPcp sets inheritance when the attempt
  // blocks, not when a lock op is merely pending) — eager donation would
  // boost the holder before the waiter's attempt and reorder
  // same-priority FIFO tie-breaks.
  const auto recomputeInheritance = [&] {
    inherited.clear();
    bool changed = true;
    while (changed) {
      changed = false;
      for (RJob& j : jobs) {
        if (!j.parked_local || j.finished || j.wake_at >= 0) continue;
        const auto* l = std::get_if<LockOp>(&opsOf(j)[j.op]);
        if (l == nullptr || sys.isGlobal(l->resource)) continue;
        Priority top_ceiling = kPriorityFloor;
        RJob* blocker = blockerFor(j.task->processor.value(), j, &top_ceiling);
        if (blocker != nullptr && effective(j) <= top_ceiling) {
          const Priority donated = effective(j);
          Priority& slot = inherited[blocker];
          if (donated > slot && donated > blocker->task->priority) {
            slot = donated;
            changed = true;
          }
        }
      }
    }
  };

  // Releases a semaphore and passes it to the next waiter, if any. The
  // grant consumes the waiter's pending P() right here, the way the
  // engine's handoff lands within the same settle.
  const auto releaseSemaphore = [&](Semaphore& g, ResourceId r, Time now) {
    g.holder = nullptr;
    g.since = -1;
    if (g.queue.empty()) return;
    auto best = g.queue.begin();
    if (!fifo) {
      for (auto it = g.queue.begin(); it != g.queue.end(); ++it) {
        if ((*it)->task->priority > (*best)->task->priority) best = it;
      }
    }
    RJob* next = *best;
    g.queue.erase(best);
    g.holder = next;
    g.since = now;
    result.counters.res(r).handoffs++;
    result.counters.res(r).acquisitions++;
    next->held.push_back(r);
    next->op++;
    next->queued = false;
    if (message && procOf(*next) != next->task->processor.value()) {
      result.counters.migrations++;
    }
    // A suspended waiter re-enters the ready queue with a fresh arrival
    // stamp; a spinner never left it.
    if (!spin) next->eligible_seq = ++seq;
  };

  // Counts one injection per fault kind per job, like the engine.
  const auto noteFault = [&](RJob& j, fault::FaultKind fk) {
    const std::uint32_t bit = fault::bitOf(fk);
    if ((j.faults_noted & bit) != 0) return;
    j.faults_noted |= bit;
    result.counters.faults_injected++;
  };
  // Applies the plan to a compute op about to start.
  const auto refComputeLen = [&](RJob& j, Duration base) {
    const ResourceId inner = j.held.empty() ? ResourceId{} : j.held.back();
    const fault::ComputeEffect eff = plan->computeEffect(
        j.id.task, j.id.instance, base, inner, !j.wcet_delta_applied);
    if (eff.delta_used) j.wcet_delta_applied = true;
    if ((eff.kinds & fault::bitOf(fault::FaultKind::kWcetOverrun)) != 0) {
      noteFault(j, fault::FaultKind::kWcetOverrun);
    }
    if ((eff.kinds & fault::bitOf(fault::FaultKind::kCsOverrun)) != 0) {
      noteFault(j, fault::FaultKind::kCsOverrun);
    }
    return eff.duration;
  };

  // Runs through `horizon` inclusive: the final iteration performs the
  // zero-time fixpoint only (no execution), mirroring the engine's
  // final settle() so completions landing exactly on the horizon count.
  for (Time now = 0; now <= horizon; ++now) {
    const bool final_instant = now == horizon;
    // 1. Releases.
    for (const Task& t : sys.tasks()) {
      const auto ti = static_cast<std::size_t>(t.id.value());
      auto& nr = next_release[ti];
      const auto makeJob = [&](Time actual, Time nominal) {
        RJob j;
        j.id = JobId{t.id, instance[ti]++};
        j.task = &t;
        j.release = actual;
        j.deadline = nominal + t.relative_deadline;
        j.eligible_seq = ++seq;
        jobs.push_back(j);
      };
      // A jitter-deferred release comes due independently of nr; its
      // deadline stays tied to the nominal release time.
      if (jit_at[ti] >= 0 && jit_at[ti] <= now && jit_at[ti] < horizon) {
        makeJob(jit_at[ti], jit_nominal[ti]);
        jit_at[ti] = -1;
      }
      while (nr <= now && nr < horizon) {
        if (plan != nullptr) {
          Duration jd = plan->releaseJitter(t.id, instance[ti]);
          jd = std::min<Duration>(jd, t.period - 1);
          if (jd > 0) {
            jit_at[ti] = nr + jd;
            jit_nominal[ti] = nr;
            result.counters.faults_injected++;
            nr += t.period;
            continue;
          }
        }
        makeJob(nr, nr);
        nr += t.period;
      }
    }
    // 2. Voluntary wakes.
    for (RJob& j : jobs) {
      if (!j.finished && j.wake_at >= 0 && j.wake_at <= now) {
        j.wake_at = -1;
        j.eligible_seq = ++seq;
      }
    }

    // 2b. Stuck-holder watchdog: revoke any global semaphore whose holder
    //     has kept it for `holder_watchdog` ticks and hand it to the
    //     highest-priority waiter — the reference half of the engine's
    //     watchdog containment policy. Deferred while the holder is not
    //     schedulable (parity with the engine's ready-state guard).
    if (holder_watchdog > 0) {
      for (auto& [rv, g] : sems) {
        if (g.holder == nullptr || g.since < 0 ||
            now - g.since < holder_watchdog) {
          continue;
        }
        RJob* h = g.holder;
        if (!ready(*h)) continue;
        const ResourceId r(rv);
        result.counters.forced_releases++;
        result.counters.faults_contained++;
        MPCP_CHECK(!h->held.empty() && h->held.back() == r,
                   "reference: forced release of non-innermost semaphore");
        h->held.pop_back();
        const auto& hops = opsOf(*h);
        const auto* u = h->op < hops.size()
                            ? std::get_if<UnlockOp>(&hops[h->op])
                            : nullptr;
        if (u != nullptr && u->resource == r) {
          // The holder sits right at this V() (stuck, burning time):
          // consume it so the rest of the body runs.
          h->op++;
          h->done_in_op = 0;
          h->cur_len = -1;
        } else {
          h->force_released.push_back(r);
        }
        releaseSemaphore(g, r, now);
      }
    }

    // 3. Scheduling fixpoint: per processor, pick the top ready job and
    //    drain its zero-duration ops (locks, unlocks, suspends,
    //    completions) until it needs time, blocks, suspends or finishes.
    //    Processor visit order mirrors the engine's settle(): a mutation
    //    moves on to the NEXT processor with the new state; the re-pick
    //    on this processor happens in the following pass, and passes
    //    repeat until nothing changes.
    std::vector<RJob*> runner(static_cast<std::size_t>(procs), nullptr);
    bool pass_changed = true;
    while (pass_changed) {
      pass_changed = false;
      for (int p = 0; p < procs; ++p) {
        recomputeInheritance();
        // Best ready job on p by effective priority, then FCFS.
        RJob* j = nullptr;
        for (RJob& c : jobs) {
          if (!ready(c) || procOf(c) != p) continue;
          if (j == nullptr) {
            j = &c;
            continue;
          }
          const Priority pc = effective(c), pj = effective(*j);
          if (pc > pj || (pc == pj && c.eligible_seq < j->eligible_seq)) {
            j = &c;
          }
        }
        runner[static_cast<std::size_t>(p)] = j;
        if (j == nullptr) continue;

        // Drain exactly like the engine's processRunnableOps: once
        // dispatched, a job keeps issuing operations until it needs
        // time, blocks, suspends or finishes — even if an unlock lowered
        // its priority mid-drain (completion after the final V() is
        // instantaneous). A job that made no progress is runnable as-is.
        bool progressed = false;
        while (true) {
          const auto& ops = opsOf(*j);
          if (j->op >= ops.size()) {
            j->finished = true;
            result.jobs.push_back({j->id, j->release, now});
            if (now > j->deadline) result.any_deadline_miss = true;
            progressed = true;
            break;
          }
          if (std::get_if<ComputeOp>(&ops[j->op]) != nullptr) break;
          if (const auto* susp = std::get_if<SuspendOp>(&ops[j->op])) {
            j->op++;
            j->wake_at = now + susp->duration;
            progressed = true;
            break;
          }
          if (const auto* l = std::get_if<LockOp>(&ops[j->op])) {
            // A spinner burns the processor while it waits, the same
            // way a stuck holder burns it at its V().
            if (j->queued) break;
            // Mirror the engine's V() scheduling point: if an earlier op
            // in this drain left a strictly higher-priority job eligible
            // on p, that job preempts before j's next P(). Back-to-back
            // critical sections must not run atomically — the F5
            // blocking bound's once-per-resume argument depends on this
            // preemption opportunity.
            if (progressed) {
              recomputeInheritance();
              const bool preempted =
                  std::any_of(jobs.begin(), jobs.end(), [&](const RJob& o) {
                    return &o != j && ready(o) && procOf(o) == p &&
                           effective(o) > effective(*j);
                  });
              if (preempted) break;  // the re-run pass dispatches
            }
            if (queuedLock(l->resource)) {
              Semaphore& g = sems[l->resource.value()];
              if (g.holder == nullptr || g.holder == j) {
                const bool fresh = g.holder == nullptr;
                if (fresh) g.since = now;
                g.holder = j;
                result.counters.res(l->resource).acquisitions++;
                j->held.push_back(l->resource);
                j->op++;
                progressed = true;
                if (message && fresh) {
                  // The agent queues on the sync processor in request
                  // order; once it has moved there, p re-picks.
                  j->eligible_seq = ++seq;
                  if (procOf(*j) != p) {
                    result.counters.migrations++;
                    break;
                  }
                }
                continue;
              }
              g.queue.push_back(j);
              result.counters.res(l->resource).contended_waits++;
              j->queued = true;
              progressed = true;
              break;
            }
            // Local PCP ceiling test, against the inheritance picture as
            // of the attempt (the engine also tests the state as-is).
            Priority top_ceiling = kPriorityFloor;
            RJob* blocker = blockerFor(p, *j, &top_ceiling);
            if (blocker == nullptr || effective(*j) > top_ceiling) {
              result.counters.res(l->resource).acquisitions++;
              j->held.push_back(l->resource);
              j->op++;
              progressed = true;
              continue;
            }
            // Ceiling-blocked: park like the engine's LocalPcp (the job
            // leaves the ready set until a local unlock on this
            // processor wakes it for a retry).
            j->parked_local = true;
            result.counters.res(l->resource).contended_waits++;
            parked_local_q[static_cast<std::size_t>(p)].push_back(j);
            progressed = true;
            break;
          }
          const auto& u = std::get<UnlockOp>(ops[j->op]);
          // Watchdog already revoked this semaphore: the V() is a no-op.
          const auto fr = std::find(j->force_released.begin(),
                                    j->force_released.end(), u.resource);
          if (fr != j->force_released.end()) {
            j->force_released.erase(fr);
            j->op++;
            progressed = true;
            continue;
          }
          if (plan != nullptr && !j->held.empty() &&
              j->held.back() == u.resource &&
              plan->stuckAt(j->id.task, j->id.instance, u.resource)) {
            // Stuck holder: never executes this V(); burns clock time at
            // the unlock site like a compute op.
            noteFault(*j, fault::FaultKind::kStuckHolder);
            break;
          }
          MPCP_CHECK(!j->held.empty() && j->held.back() == u.resource,
                     "reference: unlock order violated");
          j->held.pop_back();
          j->op++;
          if (queuedLock(u.resource)) {
            Semaphore& g = sems[u.resource.value()];
            MPCP_CHECK(g.holder == j, "reference: non-holder unlock");
            releaseSemaphore(g, u.resource, now);
            // A dpcp job returns home with its arrival stamp kept; p
            // re-picks.
            if (procOf(*j) != p) {
              result.counters.migrations++;
              progressed = true;
              break;
            }
          } else {
            // Blocking conditions changed: wake every parked job for a
            // retry, re-stamping arrival order exactly like the engine's
            // wake() (losers re-park on the retry).
            auto& parked = parked_local_q[static_cast<std::size_t>(p)];
            for (RJob* w : parked) {
              w->parked_local = false;
              w->eligible_seq = ++seq;
            }
            parked.clear();
          }
          progressed = true;
        }
        if (progressed) {
          pass_changed = true;
          runner[static_cast<std::size_t>(p)] = nullptr;  // re-pick later
        }
      }
    }

    // 4. Deadline overrun visibility (parity with the engine's policy).
    for (RJob& j : jobs) {
      if (!j.finished && now > j.deadline) result.any_deadline_miss = true;
    }

    // 5. Execute one tick per processor. A runner parked at a P() (a
    //    spinner) or a V() (a stuck holder) burns the tick.
    if (final_instant) break;
    for (int p = 0; p < procs; ++p) {
      RJob* j = runner[static_cast<std::size_t>(p)];
      if (j == nullptr) continue;
      const auto& ops = opsOf(*j);
      if (const auto* c = std::get_if<ComputeOp>(&ops[j->op])) {
        if (j->cur_len < 0) {
          j->cur_len = plan != nullptr ? refComputeLen(*j, c->duration)
                                       : c->duration;
        }
        if (++j->done_in_op >= j->cur_len) {
          j->op++;
          j->done_in_op = 0;
          j->cur_len = -1;
        }
      }
    }
  }

  // Jobs still unfinished after the final fixpoint are censored.
  for (RJob& j : jobs) {
    if (j.finished) continue;
    result.jobs.push_back({j.id, j.release, -1});
    if (j.deadline <= horizon) result.any_deadline_miss = true;
  }

  // Deterministic output order.
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ReferenceJobResult& a, const ReferenceJobResult& b) {
              if (a.id.task != b.id.task) return a.id.task < b.id.task;
              return a.id.instance < b.id.instance;
            });
  return result;
}

}  // namespace mpcp
