// Chrome trace-event JSON export of a recorded simulation, loadable in
// ui.perfetto.dev (or chrome://tracing) for interactive timeline
// inspection next to the ASCII Gantt renderer.
//
// Mapping (1 tick = 1 microsecond of trace time):
//   * one track ("process") per processor, named P<n>;
//   * one thread per (processor, task) pair that ever ran there, so
//     DPCP agent execution shows up on the synchronization processor;
//   * execution segments -> "X" complete events (cat = exec mode);
//   * blocking episodes  -> async "b"/"e" spans (kLockWait .. matching
//     kLockGrant; PCP wake-retry re-waits extend the open span);
//   * voluntary suspensions -> async spans (kSelfSuspend .. kSelfResume);
//   * deadline misses and fault/containment events -> "i" instants
//     (a processor stall has no job, so it is process-scoped).
// Spans still open at the horizon are closed there.
//
// Requires SimConfig::record_trace (the exporter reads result.trace and
// result.segments; both are empty otherwise).
#pragma once

#include <ostream>

#include "model/task_system.h"
#include "sim/result.h"

namespace mpcp {

/// Writes the whole trace as one JSON object {"traceEvents": [...]}.
/// Output is deterministic: byte-identical for identical results.
void writePerfettoTrace(std::ostream& os, const TaskSystem& system,
                        const SimResult& result);

}  // namespace mpcp
