#include "core/hybrid_protocol.h"

#include <algorithm>

#include "common/strf.h"

namespace mpcp {

HybridPolicy HybridPolicy::allShared(const TaskSystem& system) {
  return {system.resources().size(), GlobalPolicy::kSharedMemory};
}

HybridPolicy HybridPolicy::allMessage(const TaskSystem& system) {
  return {system.resources().size(), GlobalPolicy::kMessageBased};
}

void HybridPolicy::set(ResourceId r, GlobalPolicy policy) {
  MPCP_CHECK(r.valid() && static_cast<std::size_t>(r.value()) < size_,
             "HybridPolicy::set: unknown resource " << r);
  if (uniform_.has_value()) {
    per_resource_.assign(size_, *uniform_);
    uniform_.reset();
  }
  per_resource_[static_cast<std::size_t>(r.value())] = policy;
}

namespace {

const char* nameOf(const HybridPolicy& policy) {
  const auto uniform = policy.uniform();
  if (!uniform.has_value()) return "hybrid";
  return *uniform == GlobalPolicy::kSharedMemory ? "mpcp" : "dpcp";
}

}  // namespace

HybridProtocol::HybridProtocol(const TaskSystem& system,
                               const PriorityTables& tables,
                               HybridPolicy policy)
    : system_(&system),
      tables_(&tables),
      policy_(std::move(policy)),
      name_(nameOf(policy_)),
      local_(system, tables),
      global_(system.resources().size()) {
  for (const Task& t : system.tasks()) {
    for (const CriticalSection& cs : t.sections) {
      if (cs.parent < 0) continue;
      const CriticalSection& outer =
          t.sections[static_cast<std::size_t>(cs.parent)];
      const bool inner_global = system.isGlobal(cs.resource);
      const bool outer_global = system.isGlobal(outer.resource);
      if (!inner_global && !outer_global) continue;  // local PCP nest: fine
      if (!inner_global || !outer_global) {
        throw ConfigError(strf(name_, ": ", t.name,
                               " nests local/global sections across kinds (",
                               outer.resource, " encloses ", cs.resource,
                               ")"));
      }
      if (!messageBased(cs.resource) || !messageBased(outer.resource)) {
        throw ConfigError(strf(
            name_, ": ", t.name, " nests global sections (", outer.resource,
            " encloses ", cs.resource, "); nesting requires the "
            "message-based policy on both — or collapse them into a group "
            "lock"));
      }
      if (syncOf(cs.resource) != syncOf(outer.resource)) {
        throw ConfigError(strf(
            name_, ": ", t.name, " nests message-based sections on "
            "different sync processors (", outer.resource, " on ",
            syncOf(outer.resource), " encloses ", cs.resource, " on ",
            syncOf(cs.resource), ")"));
      }
    }
  }
  // A task can have at most a handful of live jobs at once (overrunning
  // releases); 2x the task count covers every queue's worst case.
  reserveSemQueues(global_, 2 * system.tasks().size());
}

void HybridProtocol::attach(Engine& engine) {
  SyncProtocol::attach(engine);
  local_.attach(engine);
}

LockOutcome HybridProtocol::onLock(Job& j, ResourceId r) {
  if (!system_->isGlobal(r)) return local_.onLock(j, r);  // rule 2

  SemState& s = global_[static_cast<std::size_t>(r.value())];
  if (s.holder == &j) return LockOutcome::kGranted;  // handed off
  if (s.holder == nullptr) {
    // Rule 5: atomic acquisition; rule 3: fixed elevation on entry. A
    // nested message-based entry keeps its outer sections' ceiling.
    s.holder = &j;
    engine_->noteGlobalHolder(r, &j);
    const bool message = messageBased(r);
    j.elevated = std::max(j.elevated, elevation(r, j.host, message));
    engine_->notePriorityChanged(j);
    const ProcessorId where = message ? syncOf(r) : j.host;
    engine_->emit({.kind = Ev::kGcsEnter, .job = j.id, .processor = where,
                   .resource = r, .priority = j.elevated});
    if (message) {
      engine_->migrate(j, where);
      // Queue on the sync processor in request order: without the restamp
      // the agent would carry the job's release-time stamp and jump ahead
      // of equal-ceiling agents granted earlier (handoff-path agents get
      // a fresh stamp via wake(), so this grant path must match).
      engine_->restampArrival(j);
    }
    return LockOutcome::kGranted;
  }
  // Rule 6: suspend in the priority-ordered queue, keyed by the job's
  // normal assigned priority.
  s.queue.push(&j, j.base);
  engine_->parkWaiting(j, r, s.holder->id);
  return LockOutcome::kWaiting;
}

void HybridProtocol::onUnlock(Job& j, ResourceId r) {
  if (!system_->isGlobal(r)) {
    local_.onUnlock(j, r);
    return;
  }

  SemState& s = global_[static_cast<std::size_t>(r.value())];
  MPCP_CHECK(s.holder == &j, j.id << " releasing " << r << " it does not hold");

  // Remaining elevation from still-held global semaphores: only a
  // message-based section can sit inside another (message-based) one.
  // The engine pops j.held after this call, so skip `r` explicitly.
  const bool message = messageBased(r);
  Priority remaining = kPriorityFloor;
  if (message) {
    for (ResourceId held : j.held) {
      if (held != r && system_->isGlobal(held)) {
        remaining = std::max(remaining, tables_->ceiling(held));
      }
    }
  }
  j.elevated = remaining;
  engine_->notePriorityChanged(j);
  if (remaining == kPriorityFloor) {
    engine_->emit({.kind = Ev::kGcsExit, .job = j.id, .processor = j.current,
                   .resource = r, .priority = j.base});
    if (j.current != j.host) engine_->migrate(j, j.host);  // come home
  }

  if (s.queue.empty()) {
    s.holder = nullptr;
    engine_->noteGlobalHolder(r, nullptr);
    engine_->emit({.kind = Ev::kUnlock, .job = j.id, .processor = j.current,
                   .resource = r});
    return;
  }
  // Rule 7: direct handoff to the highest-priority waiter; it becomes
  // eligible at its gcs elevation immediately (it must be able to preempt
  // the moment it is signalled) — on its host, or as an agent on the
  // sync processor.
  Job* next = s.queue.pop();
  s.holder = next;
  engine_->noteGlobalHolder(r, next);
  next->elevated =
      std::max(next->elevated, elevation(r, next->host, message));
  engine_->counters().res(r).handoffs++;
  const ProcessorId where = message ? syncOf(r) : next->host;
  engine_->emit({.kind = Ev::kHandoff, .job = j.id,
                 .processor = message ? where : j.current, .resource = r,
                 .other = next->id});
  engine_->emit({.kind = Ev::kGcsEnter, .job = next->id, .processor = where,
                 .resource = r, .priority = next->elevated});
  if (message) engine_->migrate(*next, where);
  engine_->wake(*next);
}

void HybridProtocol::onJobFinished(Job& j) { local_.onJobFinished(j); }

}  // namespace mpcp
