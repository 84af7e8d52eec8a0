// The protocol enumeration on its own, so code that must stay independent
// of the engine and the protocol implementations (the tick-stepped
// reference in sim/reference.h) can name a protocol without including
// them. Names, factories and capabilities live in core/protocol_registry.h.
#pragma once

namespace mpcp {

enum class ProtocolKind {
  kNone,      ///< plain semaphores, FIFO queues, no priority management
  kNonePrio,  ///< plain semaphores with priority-ordered queues
  kPip,       ///< priority inheritance (cross-processor)
  kPcp,       ///< uniprocessor priority ceiling protocol (no globals)
  kMpcp,      ///< the paper's shared-memory protocol
  kDpcp,      ///< message-based baseline [8]
  kHybrid,    ///< per-resource MPCP/DPCP mix (canonical id-parity policy)
  kSpinFifo,  ///< MSRP-style non-preemptive FIFO spin locks
  kSpinPrio,  ///< non-preemptive priority-ordered spin locks
};

}  // namespace mpcp
