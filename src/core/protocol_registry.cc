#include "core/protocol_registry.h"

#include <utility>

#include "common/check.h"
#include "core/hybrid_protocol.h"
#include "protocols/none.h"
#include "protocols/pcp.h"
#include "protocols/pip.h"
#include "protocols/spin.h"

namespace mpcp {

namespace {

template <typename T, typename... Args>
std::unique_ptr<SyncProtocol> make(Args&&... args) {
  return std::make_unique<T>(std::forward<Args>(args)...);
}

}  // namespace

const std::vector<ProtocolSpec>& protocolRegistry() {
  // Canonical order: the original fuzz order (none, none-prio, pip, pcp,
  // mpcp, dpcp, hybrid) with later additions appended — see the header's
  // note on corpus stability before editing.
  static const std::vector<ProtocolSpec> kRegistry = {
      {ProtocolKind::kNone, "none",
       "plain semaphores, FIFO queues, no priority management",
       /*analyzable=*/false, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables&) {
         return make<NoProtocol>(s, QueueOrder::kFifo);
       }},
      {ProtocolKind::kNonePrio, "none-prio",
       "plain semaphores with priority-ordered queues",
       /*analyzable=*/false, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables&) {
         return make<NoProtocol>(s, QueueOrder::kPriority);
       }},
      {ProtocolKind::kPip, "pip",
       "priority inheritance across processors (unbounded remote blocking)",
       /*analyzable=*/false, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables&) {
         return make<PipProtocol>(s);
       }},
      {ProtocolKind::kPcp, "pcp",
       "uniprocessor priority ceiling protocol (rejects global resources)",
       /*analyzable=*/true, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<PcpProtocol>(s, t);
       }},
      {ProtocolKind::kMpcp, "mpcp",
       "the paper's shared-memory multiprocessor priority ceiling protocol",
       /*analyzable=*/true, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<HybridProtocol>(s, t, HybridPolicy::allShared(s));
       }},
      {ProtocolKind::kDpcp, "dpcp",
       "message-based distributed priority ceiling baseline [8]",
       /*analyzable=*/true, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<HybridProtocol>(s, t, HybridPolicy::allMessage(s));
       }},
      {ProtocolKind::kHybrid, "hybrid",
       "per-resource MPCP/DPCP mix (canonical id-parity policy)",
       /*analyzable=*/true, /*suspension_based=*/true,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<HybridProtocol>(s, t, defaultHybridPolicy(s));
       }},
      {ProtocolKind::kSpinFifo, "spin-fifo",
       "MSRP-style non-preemptive FIFO spin locks",
       /*analyzable=*/true, /*suspension_based=*/false,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<SpinProtocol>(s, t, SpinOrder::kFifo);
       }},
      {ProtocolKind::kSpinPrio, "spin-prio",
       "non-preemptive priority-ordered spin locks",
       /*analyzable=*/true, /*suspension_based=*/false,
       [](const TaskSystem& s, const PriorityTables& t) {
         return make<SpinProtocol>(s, t, SpinOrder::kPriority);
       }},
  };
  return kRegistry;
}

const ProtocolSpec& protocolSpec(ProtocolKind kind) {
  for (const ProtocolSpec& spec : protocolRegistry()) {
    if (spec.kind == kind) return spec;
  }
  throw ConfigError("unregistered protocol kind " +
                    std::to_string(static_cast<int>(kind)));
}

const ProtocolSpec* findProtocol(std::string_view name) {
  for (const ProtocolSpec& spec : protocolRegistry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ProtocolKind protocolKindFromName(const std::string& name) {
  if (const ProtocolSpec* spec = findProtocol(name)) return spec->kind;
  throw ConfigError("unknown protocol '" + name +
                    "' (known: " + knownProtocolNames() + ")");
}

const std::vector<std::string>& protocolNameList() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(protocolRegistry().size());
    for (const ProtocolSpec& spec : protocolRegistry()) {
      names.emplace_back(spec.name);
    }
    return names;
  }();
  return kNames;
}

std::string knownProtocolNames() {
  std::string out;
  for (const ProtocolSpec& spec : protocolRegistry()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

HybridPolicy defaultHybridPolicy(const TaskSystem& system) {
  // A per-resource map even when no global resource turns message-based,
  // so the protocol always reports "hybrid" rather than a uniform name.
  HybridPolicy policy(std::vector<GlobalPolicy>(system.resources().size(),
                                                GlobalPolicy::kSharedMemory));
  for (const ResourceInfo& r : system.resources()) {
    if (r.scope == ResourceScope::kGlobal && r.id.value() % 2 == 1) {
      policy.set(r.id, GlobalPolicy::kMessageBased);
    }
  }
  return policy;
}

}  // namespace mpcp
