#include "analysis/system_index.h"

#include <algorithm>

namespace mpcp {

SystemIndex::SystemIndex(const TaskSystem& system)
    : system_(&system),
      profiles_(buildProfiles(system)),
      users_(system.resources().size()),
      rank_(system.tasks().size()) {
  for (const Task& t : system.tasks()) {
    for (const CriticalSection& cs : t.sections) {
      if (cs.parent >= 0) continue;  // only outermost sections are counted
      auto& list = users_[static_cast<std::size_t>(cs.resource.value())];
      // Tasks arrive in id order, so a task's entry is the last one.
      if (list.empty() || list.back().task != t.id) {
        list.push_back({.task = t.id,
                        .processor = t.processor,
                        .priority = t.priority,
                        .period = t.period});
      }
      ResourceUser& u = list.back();
      u.max_cs = std::max(u.max_cs, cs.duration);
      u.total += cs.duration;
      u.requests++;
    }
  }
  for (const ResourceInfo& r : system.resources()) {
    if (r.scope == ResourceScope::kGlobal) globals_.push_back(r.id);
  }
  for (int p = 0; p < system.processorCount(); ++p) {
    const std::vector<TaskId>& local = system.tasksOn(ProcessorId(p));
    for (std::size_t rank = 0; rank < local.size(); ++rank) {
      rank_[static_cast<std::size_t>(local[rank].value())] = rank;
    }
  }
}

std::span<const TaskId> SystemIndex::higherLocal(const Task& t) const {
  const std::vector<TaskId>& local = system_->tasksOn(t.processor);
  return {local.data(), rank_[static_cast<std::size_t>(t.id.value())]};
}

std::span<const TaskId> SystemIndex::lowerLocal(const Task& t) const {
  const std::vector<TaskId>& local = system_->tasksOn(t.processor);
  const std::size_t rank = rank_[static_cast<std::size_t>(t.id.value())];
  return std::span<const TaskId>(local).subspan(rank + 1);
}

Duration SystemIndex::maxLowerLocalCs(const Task& ti,
                                      const PriorityTables& tables) const {
  Duration worst = 0;
  for (TaskId tl : lowerLocal(ti)) {
    for (const SectionUse& z : profile(tl).local_sections) {
      if (tables.ceiling(z.resource) >= ti.priority) {
        worst = std::max(worst, z.duration);
      }
    }
  }
  return worst;
}

Duration SystemIndex::localBlocking(const Task& ti,
                                    const PriorityTables& tables) const {
  // Theorem 1: one lower-priority local section per suspension (global
  // access or voluntary) plus one at job start.
  return static_cast<Duration>(profile(ti.id).suspensionOpportunities() + 1) *
         maxLowerLocalCs(ti, tables);
}

Duration SystemIndex::deferredExecution(const Task& ti) const {
  Duration penalty = 0;
  for (TaskId tj : higherLocal(ti)) {
    if (profile(tj).suspensionOpportunities() > 0) {
      penalty += system_->task(tj).wcet;
    }
  }
  return penalty;
}

}  // namespace mpcp
