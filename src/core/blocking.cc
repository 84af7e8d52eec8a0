#include "core/blocking.h"

#include "common/check.h"

namespace mpcp {

MpcpBlockingAnalysis::MpcpBlockingAnalysis(const TaskSystem& system,
                                           const PriorityTables& tables,
                                           BlockingOptions options)
    : MpcpBlockingAnalysis(SystemIndex(system), tables, options) {}

MpcpBlockingAnalysis::MpcpBlockingAnalysis(const SystemIndex& index,
                                           const PriorityTables& tables,
                                           BlockingOptions options) {
  const auto all = hybridBlocking(
      index, tables, HybridPolicy::allShared(index.system()), options);
  breakdowns_.reserve(all.size());
  for (const HybridBlockingBreakdown& b : all) {
    breakdowns_.push_back({.local_lower_cs = b.local_lower_cs,
                           .lower_gcs_queue = b.lower_gcs_queue,
                           .higher_gcs_remote = b.higher_gcs_remote,
                           .blocking_proc_gcs = b.blocking_proc_gcs,
                           .local_lower_gcs = b.local_lower_gcs,
                           .deferred_execution = b.deferred_execution});
  }
}

const BlockingBreakdown& MpcpBlockingAnalysis::blocking(TaskId t) const {
  MPCP_CHECK(t.valid() &&
                 static_cast<std::size_t>(t.value()) < breakdowns_.size(),
             "blocking(): unknown task " << t);
  return breakdowns_[static_cast<std::size_t>(t.value())];
}

std::vector<DpcpBlockingBreakdown> dpcpBlocking(const TaskSystem& system,
                                                const PriorityTables& tables,
                                                DpcpBlockingOptions options) {
  return dpcpBlocking(SystemIndex(system), tables, options);
}

std::vector<DpcpBlockingBreakdown> dpcpBlocking(const SystemIndex& index,
                                                const PriorityTables& tables,
                                                DpcpBlockingOptions options) {
  const auto all = hybridBlocking(
      index, tables, HybridPolicy::allMessage(index.system()),
      {.include_deferred_execution = options.include_deferred_execution});
  std::vector<DpcpBlockingBreakdown> out;
  out.reserve(all.size());
  for (const HybridBlockingBreakdown& b : all) {
    out.push_back(
        {.local_lower_cs = b.local_lower_cs,
         .lower_gcs_queue = b.lower_gcs_queue,
         .agent_interference = b.higher_gcs_remote + b.agent_interference,
         .host_agent_load = b.host_agent_load,
         .deferred_execution = b.deferred_execution});
  }
  return out;
}

}  // namespace mpcp
