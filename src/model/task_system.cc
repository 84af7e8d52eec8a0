#include "model/task_system.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/check.h"
#include "common/math_util.h"
#include "common/strf.h"

namespace mpcp {

const Task& TaskSystem::task(TaskId id) const {
  MPCP_CHECK(id.valid() && static_cast<std::size_t>(id.value()) < tasks_.size(),
             "unknown task id " << id);
  return tasks_[static_cast<std::size_t>(id.value())];
}

const ResourceInfo& TaskSystem::resource(ResourceId id) const {
  MPCP_CHECK(
      id.valid() && static_cast<std::size_t>(id.value()) < resources_.size(),
      "unknown resource id " << id);
  return resources_[static_cast<std::size_t>(id.value())];
}

const std::vector<TaskId>& TaskSystem::tasksOn(ProcessorId p) const {
  MPCP_CHECK(p.valid() && p.value() < processor_count_,
             "unknown processor " << p);
  return tasks_on_[static_cast<std::size_t>(p.value())];
}

bool TaskSystem::hasGlobalResources() const {
  return std::any_of(resources_.begin(), resources_.end(),
                     [](const ResourceInfo& r) {
                       return r.scope == ResourceScope::kGlobal;
                     });
}

double TaskSystem::utilizationOn(ProcessorId p) const {
  double u = 0;
  for (TaskId t : tasksOn(p)) u += task(t).utilization();
  return u;
}

TaskSystemBuilder::TaskSystemBuilder(int processor_count,
                                     TaskSystemOptions options)
    : processor_count_(processor_count), options_(options) {
  if (processor_count < 1) {
    throw ConfigError(strf("processor count must be >= 1, got ",
                           processor_count));
  }
}

ResourceId TaskSystemBuilder::addResource(std::string name) {
  const ResourceId id(static_cast<std::int32_t>(resource_names_.size()));
  if (name.empty()) name = strf("S", id.value() + 1);
  resource_names_.push_back(std::move(name));
  sync_overrides_.emplace_back();
  return id;
}

TaskId TaskSystemBuilder::addTask(TaskSpec spec) {
  const TaskId id(static_cast<std::int32_t>(specs_.size()));
  if (spec.name.empty()) spec.name = strf("tau", id.value() + 1);
  specs_.push_back(std::move(spec));
  return id;
}

void TaskSystemBuilder::assignSyncProcessor(ResourceId r, ProcessorId p) {
  if (!r.valid() ||
      static_cast<std::size_t>(r.value()) >= sync_overrides_.size()) {
    throw ConfigError(strf("assignSyncProcessor: unknown resource ", r));
  }
  if (!p.valid() || p.value() >= processor_count_) {
    throw ConfigError(strf("assignSyncProcessor: unknown processor ", p));
  }
  sync_overrides_[static_cast<std::size_t>(r.value())] = p;
}

TaskSystem TaskSystemBuilder::build() && {
  TaskSystem sys;
  sys.processor_count_ = processor_count_;
  sys.options_ = options_;

  if (specs_.empty()) throw ConfigError("task system has no tasks");

  // ---- Tasks: validate specs, extract critical sections. ----
  const std::size_t n = specs_.size();
  sys.tasks_.reserve(n);
  bool any_explicit = false, all_explicit = true;
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec& spec = specs_[i];
    const TaskId id(static_cast<std::int32_t>(i));
    if (spec.period <= 0) {
      throw ConfigError(strf(spec.name, ": period must be > 0, got ",
                             spec.period));
    }
    if (spec.phase < 0) {
      throw ConfigError(strf(spec.name, ": phase must be >= 0"));
    }
    if (spec.relative_deadline == 0) spec.relative_deadline = spec.period;
    if (spec.relative_deadline < 0 || spec.relative_deadline > spec.period) {
      throw ConfigError(strf(spec.name,
                             ": deadline must be in (0, period], got ",
                             spec.relative_deadline));
    }
    if (spec.processor < 0 || spec.processor >= processor_count_) {
      throw ConfigError(strf(spec.name, ": processor ", spec.processor,
                             " out of range [0, ", processor_count_, ")"));
    }
    if (spec.body.totalCompute() <= 0) {
      throw ConfigError(strf(spec.name, ": body has no compute time"));
    }
    any_explicit |= spec.priority.has_value();
    all_explicit &= spec.priority.has_value();

    Task task;
    task.id = id;
    task.name = spec.name;
    task.period = spec.period;
    task.phase = spec.phase;
    task.relative_deadline = spec.relative_deadline;
    task.processor = ProcessorId(spec.processor);
    task.body = spec.body;
    task.sections = extractSections(spec.body);  // throws on bad nesting
    task.wcet = spec.body.totalCompute();
    for (const CriticalSection& cs : task.sections) {
      if (!cs.resource.valid() ||
          static_cast<std::size_t>(cs.resource.value()) >=
              resource_names_.size()) {
        throw ConfigError(strf(spec.name, ": references undeclared resource ",
                               cs.resource));
      }
      // Derived today (section content is part of the body), but contain-
      // ment budgets trust cs.duration, so reject drift loudly by name.
      if (cs.duration < 0 || cs.duration > task.wcet) {
        throw ConfigError(strf(
            spec.name, ": critical section on ",
            resource_names_[static_cast<std::size_t>(cs.resource.value())],
            " has duration ", cs.duration, " outside [0, wcet=", task.wcet,
            "]"));
      }
    }
    sys.tasks_.push_back(std::move(task));
  }
  if (any_explicit && !all_explicit) {
    throw ConfigError(
        "either all tasks or no tasks may set an explicit priority");
  }

  // ---- Priorities: explicit, or rate-monotonic (Section 3.1). ----
  if (all_explicit) {
    std::set<std::int32_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const Priority p = *specs_[i].priority;
      if (p.urgency() <= 0) {
        throw ConfigError(strf(specs_[i].name,
                               ": explicit priority urgency must be > 0"));
      }
      if (!seen.insert(p.urgency()).second) {
        throw ConfigError(strf("duplicate explicit priority ", p,
                               "; the analysis requires a strict order"));
      }
      sys.tasks_[i].priority = p;
    }
  } else {
    // Shorter period => higher priority; ties broken by insertion order
    // (earlier task wins, matching the paper's J_1 > J_2 > ... listing).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return sys.tasks_[a].period < sys.tasks_[b].period;
                     });
    // order[0] = shortest period = most urgent = urgency n.
    for (std::size_t rank = 0; rank < n; ++rank) {
      sys.tasks_[order[rank]].priority =
          Priority(static_cast<std::int32_t>(n - rank));
    }
  }

  Priority max_prio = kPriorityFloor;
  for (const Task& t : sys.tasks_) max_prio = std::max(max_prio, t.priority);
  sys.max_task_priority_ = max_prio;
  // P_G > P_H strictly (Section 4.4's base priority ceiling).
  sys.global_base_ = Priority(max_prio.urgency() + 1);

  // ---- Resources: users, scope, homes. ----
  sys.resources_.resize(resource_names_.size());
  for (std::size_t r = 0; r < resource_names_.size(); ++r) {
    ResourceInfo& info = sys.resources_[r];
    info.id = ResourceId(static_cast<std::int32_t>(r));
    info.name = resource_names_[r];
  }
  for (const Task& t : sys.tasks_) {
    for (const CriticalSection& cs : t.sections) {
      // One user entry per (task, resource); tasks arrive in id order.
      auto& users =
          sys.resources_[static_cast<std::size_t>(cs.resource.value())].users;
      if (users.empty() || users.back() != t.id) users.push_back(t.id);
    }
  }
  for (ResourceInfo& info : sys.resources_) {
    // Scope and default homes come from the users' lowest processor and
    // whether any user sits elsewhere.
    std::optional<ProcessorId> lowest;
    bool spread = false;
    for (TaskId t : info.users) {
      const ProcessorId p = sys.task(t).processor;
      spread |= lowest.has_value() && p != *lowest;
      if (!lowest.has_value() || p < *lowest) lowest = p;
    }
    if (!spread) {
      info.scope = ResourceScope::kLocal;
      info.home = lowest;
    } else {
      info.scope = ResourceScope::kGlobal;
    }
    const auto& override_p =
        sync_overrides_[static_cast<std::size_t>(info.id.value())];
    info.sync_processor = override_p.has_value() ? override_p : lowest;
  }

  // ---- Nesting policy (Section 4.2 base assumption). ----
  if (!options_.allow_nested_global) {
    for (const Task& t : sys.tasks_) {
      for (const CriticalSection& cs : t.sections) {
        const bool cs_global = sys.isGlobal(cs.resource);
        if (cs.parent >= 0) {
          const CriticalSection& outer =
              t.sections[static_cast<std::size_t>(cs.parent)];
          const bool outer_global = sys.isGlobal(outer.resource);
          if (cs_global || outer_global) {
            throw ConfigError(strf(
                t.name, ": global critical sections may not nest (",
                outer.resource, " encloses ", cs.resource,
                "); see TaskSystemOptions::allow_nested_global"));
          }
        }
      }
    }
  }

  // ---- Per-processor task lists, priority-descending. ----
  sys.tasks_on_.assign(static_cast<std::size_t>(processor_count_), {});
  for (const Task& t : sys.tasks_) {
    sys.tasks_on_[static_cast<std::size_t>(t.processor.value())].push_back(
        t.id);
  }
  for (auto& list : sys.tasks_on_) {
    std::sort(list.begin(), list.end(), [&](TaskId a, TaskId b) {
      return sys.task(a).priority > sys.task(b).priority;
    });
  }

  // ---- Hyperperiod. ----
  Time hp = 1;
  for (const Task& t : sys.tasks_) {
    hp = lcmSaturating(hp, t.period);
    if (hp == kTimeInfinity) break;  // lcm(infinity, T) saturates again
  }
  sys.hyperperiod_ = hp;

  return sys;
}

}  // namespace mpcp
