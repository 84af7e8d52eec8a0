// One-stop protocol construction for experiments: pick a ProtocolKind,
// get a SyncProtocol. Owns nothing about the task system.
#pragma once

#include <memory>
#include <string>

#include "analysis/ceilings.h"
#include "core/protocol_kind.h"
#include "model/task_system.h"
#include "sim/protocol.h"

namespace mpcp {

/// Canonical name of `kind` ("mpcp", "spin-fifo", ...). Never "?": every
/// enumerator is registered; see core/protocol_registry.h.
[[nodiscard]] const char* toString(ProtocolKind kind);

/// Constructs the protocol. `tables` must outlive the returned object and
/// must have been computed from `system`. Both this and `toString` are
/// thin shims over the protocol registry (core/protocol_registry.h),
/// which is the single source of truth for the name<->kind<->factory
/// mapping shared by the engine, the CLI, the analyzer, and the fuzzer.
[[nodiscard]] std::unique_ptr<SyncProtocol> makeProtocol(
    ProtocolKind kind, const TaskSystem& system,
    const PriorityTables& tables);

}  // namespace mpcp
