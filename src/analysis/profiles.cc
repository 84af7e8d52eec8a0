#include "analysis/profiles.h"

#include <algorithm>

namespace mpcp {

std::vector<TaskProfile> buildProfiles(const TaskSystem& system) {
  std::vector<TaskProfile> profiles(system.tasks().size());
  for (const Task& t : system.tasks()) {
    TaskProfile& p = profiles[static_cast<std::size_t>(t.id.value())];
    for (const CriticalSection& cs : t.sections) {
      const bool global = system.isGlobal(cs.resource);
      if (global) p.global_resources.push_back(cs.resource);
      if (cs.parent >= 0) continue;  // only outermost sections are counted
      (global ? p.global_sections : p.local_sections)
          .push_back({cs.resource, cs.duration});
    }
    std::sort(p.global_resources.begin(), p.global_resources.end());
    p.global_resources.erase(
        std::unique(p.global_resources.begin(), p.global_resources.end()),
        p.global_resources.end());
    for (const Op& op : t.body.ops()) {
      if (const auto* susp = std::get_if<SuspendOp>(&op)) {
        p.voluntary_suspensions++;
        p.total_suspension += susp->duration;
      }
    }
  }
  return profiles;
}

}  // namespace mpcp
