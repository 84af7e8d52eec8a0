#include "fuzz/mutations.h"

#include <algorithm>

#include "common/check.h"
#include "common/strf.h"
#include "core/protocol_factory.h"
#include "protocols/local_pcp.h"
#include "protocols/sem_state.h"
#include "protocols/spin.h"
#include "sim/engine.h"

namespace mpcp::fuzz {

namespace {

/// The mpcp protocol with the gcs elevation de-based: rule 3 assigns
/// gcsPriority(S, host) - P_G, i.e. the highest remote-user priority in
/// the *normal* band. Everything else (queueing, handoff, local PCP) is
/// untouched, so only the ceiling-band oracles can tell the difference.
class GcsBaseFlippedMpcp final : public SyncProtocol {
 public:
  GcsBaseFlippedMpcp(const TaskSystem& system, const PriorityTables& tables)
      : system_(&system),
        tables_(&tables),
        local_(system, tables),
        global_(system.resources().size()) {}

  void attach(Engine& engine) override {
    SyncProtocol::attach(engine);
    local_.attach(engine);
  }

  LockOutcome onLock(Job& j, ResourceId r) override {
    if (!system_->isGlobal(r)) return local_.onLock(j, r);

    SemState& s = global_[static_cast<std::size_t>(r.value())];
    if (s.holder == &j) return LockOutcome::kGranted;
    if (s.holder == nullptr) {
      s.holder = &j;
      j.elevated = flippedElevation(j, r);
      engine_->notePriorityChanged(j);
      engine_->emit({.kind = Ev::kGcsEnter, .job = j.id, .processor = j.host,
                     .resource = r, .priority = j.elevated});
      return LockOutcome::kGranted;
    }
    s.queue.push(&j, j.base);
    engine_->parkWaiting(j, r, s.holder->id);
    return LockOutcome::kWaiting;
  }

  void onUnlock(Job& j, ResourceId r) override {
    if (!system_->isGlobal(r)) {
      local_.onUnlock(j, r);
      return;
    }
    SemState& s = global_[static_cast<std::size_t>(r.value())];
    MPCP_CHECK(s.holder == &j,
               j.id << " releasing " << r << " it does not hold");
    j.elevated = kPriorityFloor;
    engine_->notePriorityChanged(j);
    engine_->emit({.kind = Ev::kGcsExit, .job = j.id, .processor = j.current,
                   .resource = r, .priority = j.base});
    if (s.queue.empty()) {
      s.holder = nullptr;
      engine_->emit({.kind = Ev::kUnlock, .job = j.id, .processor = j.current,
                     .resource = r});
      return;
    }
    Job* next = s.queue.pop();
    s.holder = next;
    next->elevated = flippedElevation(*next, r);
    engine_->emit({.kind = Ev::kHandoff, .job = j.id, .processor = j.current,
                   .resource = r, .other = next->id});
    engine_->emit({.kind = Ev::kGcsEnter, .job = next->id,
                   .processor = next->host, .resource = r,
                   .priority = next->elevated});
    engine_->wake(*next);
  }

  void onJobFinished(Job& j) override { local_.onJobFinished(j); }
  [[nodiscard]] const char* name() const override {
    return "mpcp[gcs-ceiling-base]";
  }

 private:
  [[nodiscard]] Priority flippedElevation(const Job& j, ResourceId r) const {
    return Priority(tables_->gcsPriority(r, j.host).urgency() -
                    tables_->globalBase().urgency());
  }

  const TaskSystem* system_;
  const PriorityTables* tables_;
  LocalPcp local_;
  std::vector<SemState> global_;
};

/// SpinProtocol with the grant order deliberately wrong: spin-fifo hands
/// off to the NEWEST spinner (LIFO), spin-prio hands off in plain arrival
/// order. Everything else — non-preemptive elevation, parkSpinning /
/// noteSpinGranted, flat-section rejection — matches the real protocol,
/// so only the grant-order-sensitive oracles can tell the difference.
class MisorderedSpin final : public SyncProtocol {
 public:
  MisorderedSpin(const TaskSystem& system, const PriorityTables& tables,
                 SpinOrder claimed)
      : claimed_(claimed), sems_(system.resources().size()) {
    for (const Task& t : system.tasks()) {
      for (const CriticalSection& cs : t.sections) {
        if (cs.parent >= 0) {
          throw ConfigError(strf("spin protocols forbid nested critical "
                                 "sections (", t.name, ")"));
        }
      }
    }
    std::int32_t max_urgency = 0;
    for (const Task& t : system.tasks()) {
      max_urgency = std::max(max_urgency, t.priority.urgency());
    }
    np_priority_ = Priority(max_urgency + 1).inGlobalBand(tables.globalBase());
    reserveSemQueues(sems_, 2 * system.tasks().size());
  }

  LockOutcome onLock(Job& j, ResourceId r) override {
    SemState& s = sems_[static_cast<std::size_t>(r.value())];
    if (s.holder == &j) return LockOutcome::kGranted;
    if (s.holder == nullptr) {
      s.holder = &j;
      engine_->noteGlobalHolder(r, &j);
      j.elevated = np_priority_;
      engine_->notePriorityChanged(j);
      engine_->emit({.kind = Ev::kGcsEnter, .job = j.id,
                     .processor = j.current, .resource = r,
                     .priority = j.elevated});
      return LockOutcome::kGranted;
    }
    if (j.spinning) return LockOutcome::kSpinning;
    // Key everything equal: grant order is decided at V() time below.
    s.queue.push(&j, Priority(0));
    j.elevated = np_priority_;
    engine_->notePriorityChanged(j);
    engine_->emit({.kind = Ev::kGcsEnter, .job = j.id, .processor = j.current,
                   .resource = r, .priority = j.elevated});
    engine_->parkSpinning(j, r, s.holder->id);
    return LockOutcome::kSpinning;
  }

  void onUnlock(Job& j, ResourceId r) override {
    SemState& s = sems_[static_cast<std::size_t>(r.value())];
    MPCP_CHECK(s.holder == &j,
               j.id << " releasing " << r << " it does not hold");
    if (j.spinning) engine_->noteSpinGranted(j);
    j.elevated = kPriorityFloor;
    engine_->notePriorityChanged(j);
    engine_->emit({.kind = Ev::kGcsExit, .job = j.id, .processor = j.current,
                   .resource = r, .priority = j.base});
    if (s.queue.empty()) {
      s.holder = nullptr;
      engine_->noteGlobalHolder(r, nullptr);
      engine_->emit({.kind = Ev::kUnlock, .job = j.id, .processor = j.current,
                     .resource = r});
      return;
    }
    Job* next = claimed_ == SpinOrder::kFifo
                    ? s.queue.entries().back().value  // LIFO: newest wins
                    : s.queue.pop();  // arrival order (keys all equal)
    if (claimed_ == SpinOrder::kFifo) s.queue.remove(next);
    s.holder = next;
    engine_->noteGlobalHolder(r, next);
    engine_->counters().res(r).handoffs++;
    engine_->emit({.kind = Ev::kHandoff, .job = j.id, .processor = j.current,
                   .resource = r, .other = next->id});
    engine_->noteSpinGranted(*next);
  }

  [[nodiscard]] const char* name() const override {
    return claimed_ == SpinOrder::kFifo ? "spin-fifo[lifo-grant]"
                                        : "spin-prio[fifo-grant]";
  }

 private:
  SpinOrder claimed_;
  Priority np_priority_;
  std::vector<SemState> sems_;
};

}  // namespace

const char* toString(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kGcsCeilingBase: return "gcs-ceiling-base";
    case Mutation::kSpinFifoLifo: return "spin-fifo-lifo";
    case Mutation::kSpinPrioFifo: return "spin-prio-fifo";
  }
  return "?";
}

std::optional<Mutation> mutationFromName(const std::string& s) {
  for (const Mutation m : allMutations()) {
    if (s == toString(m)) return m;
  }
  if (s == "none") return Mutation::kNone;
  return std::nullopt;
}

const std::vector<Mutation>& allMutations() {
  static const std::vector<Mutation> kAll = {Mutation::kGcsCeilingBase,
                                             Mutation::kSpinFifoLifo,
                                             Mutation::kSpinPrioFifo};
  return kAll;
}

const char* mutationTarget(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "";
    case Mutation::kGcsCeilingBase: return "mpcp";
    case Mutation::kSpinFifoLifo: return "spin-fifo";
    case Mutation::kSpinPrioFifo: return "spin-prio";
  }
  return "";
}

std::unique_ptr<SyncProtocol> makeMutatedProtocol(
    Mutation m, const TaskSystem& system, const PriorityTables& tables) {
  switch (m) {
    case Mutation::kNone:
      return makeProtocol(ProtocolKind::kMpcp, system, tables);
    case Mutation::kGcsCeilingBase:
      return std::make_unique<GcsBaseFlippedMpcp>(system, tables);
    case Mutation::kSpinFifoLifo:
      return std::make_unique<MisorderedSpin>(system, tables,
                                              SpinOrder::kFifo);
    case Mutation::kSpinPrioFifo:
      return std::make_unique<MisorderedSpin>(system, tables,
                                              SpinOrder::kPriority);
  }
  throw ConfigError("unknown mutation");
}

}  // namespace mpcp::fuzz
