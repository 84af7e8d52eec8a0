#include "trace/invariants.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/strf.h"

namespace mpcp {

namespace {

struct HolderMap {
  std::map<std::int32_t, JobId> holder;  // resource -> job

  std::optional<JobId> get(ResourceId r) const {
    auto it = holder.find(r.value());
    if (it == holder.end()) return std::nullopt;
    return it->second;
  }
};

}  // namespace

InvariantReport checkMutualExclusion(const TaskSystem& system,
                                     const SimResult& result) {
  InvariantReport report;
  HolderMap h;
  for (const TraceEvent& e : result.trace) {
    switch (e.kind) {
      case Ev::kLockGrant: {
        const auto cur = h.get(e.resource);
        if (cur.has_value() && !(*cur == e.job)) {
          report.violations.push_back(
              strf("t=", e.t, ": ", system.resource(e.resource).name,
                   " granted to ", e.job, " while held by ", *cur));
        }
        h.holder[e.resource.value()] = e.job;
        break;
      }
      case Ev::kUnlock: {
        const auto cur = h.get(e.resource);
        if (!cur.has_value() || !(*cur == e.job)) {
          report.violations.push_back(
              strf("t=", e.t, ": ", system.resource(e.resource).name,
                   " released by non-holder ", e.job));
        }
        h.holder.erase(e.resource.value());
        break;
      }
      case Ev::kHandoff: {
        const auto cur = h.get(e.resource);
        if (!cur.has_value() || !(*cur == e.job)) {
          report.violations.push_back(
              strf("t=", e.t, ": ", system.resource(e.resource).name,
                   " handed off by non-holder ", e.job));
        }
        h.holder[e.resource.value()] = e.other;
        break;
      }
      default:
        break;
    }
  }
  return report;
}

InvariantReport checkPriorityOrderedHandoff(const TaskSystem& system,
                                            const SimResult& result) {
  InvariantReport report;
  std::map<std::int32_t, std::set<std::pair<std::int32_t, std::int64_t>>>
      waiting;  // resource -> set of (task, instance)
  const auto prio = [&](const JobId& j) {
    return system.task(j.task).priority;
  };

  for (const TraceEvent& e : result.trace) {
    switch (e.kind) {
      case Ev::kLockWait:
        waiting[e.resource.value()].insert(
            {e.job.task.value(), e.job.instance});
        break;
      case Ev::kLockGrant:
        waiting[e.resource.value()].erase(
            {e.job.task.value(), e.job.instance});
        break;
      case Ev::kHandoff: {
        auto& ws = waiting[e.resource.value()];
        ws.erase({e.other.task.value(), e.other.instance});
        for (const auto& [task_raw, instance] : ws) {
          const JobId w{TaskId(task_raw), instance};
          if (prio(w) > prio(e.other)) {
            report.violations.push_back(strf(
                "t=", e.t, ": ", system.resource(e.resource).name,
                " handed to ", e.other, " while higher-priority ", w,
                " was waiting"));
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return report;
}

InvariantReport checkGcsPreemptionRule(const TaskSystem& system,
                                       const SimResult& result) {
  InvariantReport report;

  // Collect gcs residence intervals: (processor, begin, end, job).
  struct GcsInterval {
    std::int32_t proc;
    Time begin;
    Time end;
    JobId job;
  };
  std::vector<GcsInterval> intervals;
  std::map<std::pair<std::int32_t, std::int64_t>, GcsInterval> open;
  for (const TraceEvent& e : result.trace) {
    const auto key = std::make_pair(e.job.task.value(), e.job.instance);
    if (e.kind == Ev::kGcsEnter) {
      open[key] = {e.processor.value(), e.t, -1, e.job};
    } else if (e.kind == Ev::kGcsExit) {
      auto it = open.find(key);
      if (it != open.end()) {
        it->second.end = e.t;
        intervals.push_back(it->second);
        open.erase(it);
      }
    }
  }
  for (auto& [key, iv] : open) {  // still inside gcs at horizon
    iv.end = result.horizon;
    intervals.push_back(iv);
  }

  // Any non-gcs execution segment overlapping a *different* job's gcs
  // interval on the same processor violates Theorem 2. A per-processor
  // time sweep keeps this near-linear (the naive all-pairs scan is
  // quadratic, which the fuzzer's ~10^5-event traces cannot afford): walk
  // items in begin order and compare each against only the currently
  // active items of the other kind — at most one running job plus its
  // preempters, not the whole trace.
  struct SweepItem {
    Time begin;
    Time end;
    JobId job;
    bool is_gcs;
    ExecMode mode;  // only meaningful for segments
  };
  std::map<std::int32_t, std::vector<SweepItem>> by_proc;
  for (const GcsInterval& iv : intervals) {
    by_proc[iv.proc].push_back(
        {iv.begin, iv.end, iv.job, true, ExecMode::kGcs});
  }
  for (const ExecSegment& s : result.segments) {
    if (s.mode == ExecMode::kGcs) continue;
    by_proc[s.processor.value()].push_back(
        {s.begin, s.end, s.job, false, s.mode});
  }
  for (auto& [proc, items] : by_proc) {
    std::sort(items.begin(), items.end(),
              [](const SweepItem& a, const SweepItem& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.is_gcs < b.is_gcs;
              });
    std::vector<const SweepItem*> active_gcs;
    std::vector<const SweepItem*> active_seg;
    for (const SweepItem& item : items) {
      const auto expire = [&](std::vector<const SweepItem*>& v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [&](const SweepItem* a) {
                                 return a->end <= item.begin;
                               }),
                v.end());
      };
      expire(active_gcs);
      expire(active_seg);
      for (const SweepItem* other : item.is_gcs ? active_seg : active_gcs) {
        const SweepItem& seg = item.is_gcs ? *other : item;
        const SweepItem& gcs = item.is_gcs ? item : *other;
        if (gcs.job == seg.job) continue;
        const Time lo = std::max(seg.begin, gcs.begin);
        const Time hi = std::min(seg.end, gcs.end);
        if (lo < hi) {
          report.violations.push_back(strf(
              "t=[", lo, ",", hi, "): ", seg.job, " ran ",
              toString(seg.mode), " code on P", proc, " while ", gcs.job,
              " was inside a gcs there (",
              system.task(gcs.job.task).name, ")"));
        }
      }
      (item.is_gcs ? active_gcs : active_seg).push_back(&item);
    }
  }
  return report;
}

InvariantReport checkGcsPriorityAssignment(const TaskSystem& system,
                                            const SimResult& result,
                                            const PriorityTables& tables,
                                            GcsPriorityRule rule) {
  InvariantReport report;
  const bool message = rule == GcsPriorityRule::kMessageBased;
  // Message-based: the global semaphores each job holds. A gcs entry
  // pushes one; the holder's V() (kUnlock or kHandoff) pops it.
  std::map<std::pair<std::int32_t, std::int64_t>, std::vector<ResourceId>>
      open;
  for (const TraceEvent& e : result.trace) {
    const auto key = std::make_pair(e.job.task.value(), e.job.instance);
    if (message && (e.kind == Ev::kUnlock || e.kind == Ev::kHandoff)) {
      const auto it = open.find(key);
      if (it == open.end()) continue;
      std::vector<ResourceId>& held = it->second;
      const auto r = std::find(held.begin(), held.end(), e.resource);
      if (r != held.end()) held.erase(r);
      if (held.empty()) open.erase(it);
      continue;
    }
    if (e.kind != Ev::kGcsEnter) continue;
    const Task& task = system.task(e.job.task);
    Priority expected = kPriorityFloor;
    if (message) {
      std::vector<ResourceId>& held = open[key];
      held.push_back(e.resource);
      for (ResourceId r : held) {
        expected = std::max(expected, tables.ceiling(r));
      }
    } else {
      expected = tables.gcsPriority(e.resource, task.processor);
    }
    if (e.priority != expected) {
      report.violations.push_back(strf(
          "t=", e.t, ": ", task.name, " entered gcs on ",
          system.resource(e.resource).name, " at ", e.priority,
          " but the protocol assigns ", expected));
    }
  }
  return report;
}

InvariantReport checkProtocolInvariants(const TaskSystem& system,
                                        const SimResult& result,
                                        bool priority_ordered_queues) {
  InvariantReport all = checkMutualExclusion(system, result);
  if (priority_ordered_queues) {
    InvariantReport r = checkPriorityOrderedHandoff(system, result);
    all.violations.insert(all.violations.end(), r.violations.begin(),
                          r.violations.end());
  }
  InvariantReport g = checkGcsPreemptionRule(system, result);
  all.violations.insert(all.violations.end(), g.violations.begin(),
                        g.violations.end());
  return all;
}

}  // namespace mpcp
