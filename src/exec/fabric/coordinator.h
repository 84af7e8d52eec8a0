// runFleet — the fault-tolerant campaign coordinator (ISSUE 9 tentpole).
//
// Shards a run keyset across N workers over Unix/TCP stream sockets.
// Single-threaded poll(2) loop; all state lives on the coordinator
// thread, results are delivered through callbacks on that thread.
//
// The lease/heartbeat state machine per connection:
//
//   accepted --HELLO ok--> handshaken --(silent past deadline)--> reaped
//       |  \-HELLO bad kind-> REJECT + drop          (leases requeued)
//       |  \-(no HELLO in time)-> drop
//   handshaken --LEASE--> working --RESULT/HEARTBEAT--> (last_seen reset)
//   handshaken --EOF/torn frame/bad frame--> dropped (leases requeued)
//   handshaken --BYE--> left gracefully              (leases requeued)
//
// Robustness invariants:
//   * a key is only finished once — duplicate RESULTs after a steal or a
//     reap are counted and discarded (bodies are deterministic, so the
//     duplicate bytes are identical anyway);
//   * any involuntary disconnect charges one "attempt" to the key at the
//     head of the dead worker's lease queue (the key it was most likely
//     running). A key whose workers keep dying — a poison workload —
//     permanently fails after max_attempts instead of reaping the fleet
//     forever;
//   * malformed/truncated frames never crash the loop: the decoder
//     poisons itself, frames_rejected is bumped, the connection drops,
//     and the leases are requeued;
//   * a handshaken worker that holds leases but produces no RESULT for a
//     full lease deadline is reaped even if it keeps heartbeating — a
//     dropped LEASE frame (chaos, or a real lossy link) otherwise leaves
//     both sides waiting forever, each believing the other is working;
//   * when the pending queue drains, idle workers steal the tail half of
//     the slowest straggler's unstarted leases;
//   * when no handshaken worker exists for degrade_after_ms and a
//     local_fn is provided, remaining keys drain in-process — a fleet
//     that never materializes degrades to the PR-5 path instead of
//     hanging;
//   * exec::interrupted() ends the loop between frames: BYE to everyone,
//     spawned children reaped, partial outcome returned.
//
// Commit points. The callbacks write journal records without syncing;
// on_commit makes them durable, and runFleet calls it at exactly four
// points:
//   1. just before each LEASE frame is sent, so a lease's `start`
//      records are durable before any worker can run them;
//   2. before each degraded in-process key runs — only an in-thread key
//      can take down the journaling process;
//   3. once per loop pass, before the checkpoint, so `done`/`fail`
//      records are durable before any checkpoint names their keys;
//   4. after the loop, before the final checkpoint and the return.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "exec/fabric/chaos.h"
#include "exec/fabric/work.h"
#include "obs/counters.h"

namespace mpcp::exec::fabric {

struct FleetTiming {
  int heartbeat_ms = 500;        ///< expected worker cadence (informational)
  int lease_deadline_ms = 5000;  ///< reap a worker silent this long
  int handshake_timeout_ms = 5000;
  int degrade_after_ms = 3000;   ///< no live workers this long -> local drain
  int poll_ms = 50;              ///< coordinator loop tick
};

struct FleetConfig {
  /// Where to listen: "unix:PATH" or "HOST:PORT". Empty = a unix socket
  /// under shard_dir (or the working directory).
  std::string listen;
  /// Local workers to fork+exec (0 = external workers only).
  int spawn_workers = 0;
  /// Worker binary; empty = MPCP_WORKER_BIN, else the mpcp_worker next
  /// to the running executable.
  std::string worker_bin;
  /// Directory for worker stderr logs (w<k>.log) and the default unix
  /// socket; empty = current directory for the socket, no log redirect.
  std::string shard_dir;
  /// Shipped in WELCOME: the campaign body ("sweep-v1 ..." / "fuzz-v1 ...")
  /// and the config fingerprint workers pin across reconnects.
  std::string body_spec;
  std::string fingerprint;
  /// Keys granted per LEASE; 0 = auto (pending / 2*live, clamped [1,64]).
  int lease_chunk = 0;
  /// Worker deaths a single key may cause before it permanently fails.
  int max_attempts = 3;
  FleetTiming timing;

  /// Network-fault injection (ISSUE 10). Non-empty = every outbound frame
  /// on every coordinator link goes through a ChaosLink, and spawned
  /// workers receive the same schedule via --chaos so their side injects
  /// too. Empty = plain sendFrame, zero overhead.
  ChaosSchedule chaos;
  /// Coordinator checkpoint file; empty = no checkpointing. Written
  /// atomically every checkpoint_interval_ms while state is dirty and
  /// immediately after an attempt charge; removed when the campaign
  /// completes cleanly.
  std::string checkpoint_path;
  int checkpoint_interval_ms = 1000;
  /// Attempt counts carried over from a --takeover (checkpoint load).
  /// Keys already at max_attempts fail permanently at startup instead of
  /// being re-charged from zero.
  std::map<std::string, int> initial_attempts;

  /// Called once per key when it is first granted (and again on regrant
  /// after a worker death). May be null.
  std::function<void(const std::string& key)> on_grant;
  /// Called exactly once per finished key with ok == true. Required.
  std::function<void(const FleetResult& result)> on_result;
  /// Called exactly once per permanently failed key. May be null.
  std::function<void(const std::string& key, const std::string& error)>
      on_fail;
  /// Makes everything the callbacks above recorded durable; called at
  /// the commit points listed at the top of this file. May be null.
  std::function<void()> on_commit;
  /// In-process fallback body for graceful degradation. May be null
  /// (then an unreachable fleet simply leaves keys pending).
  FleetBodyFn local_fn;
  std::ostream* log = nullptr;  ///< progress/diagnostics; may be null
};

struct FleetOutcome {
  obs::FleetCounters counters;
  std::uint64_t completed = 0;  ///< keys finished ok
  std::uint64_t failed = 0;     ///< keys permanently failed
  bool interrupted = false;
};

/// Runs the coordinator loop until every key is finished (ok or failed)
/// or an interrupt arrives. Throws ConfigError only for setup failures
/// (bad listen address); everything mid-flight is absorbed.
[[nodiscard]] FleetOutcome runFleet(const std::vector<std::string>& keys,
                                    const FleetConfig& config);

/// The mpcp_worker binary next to /proc/self/exe, or MPCP_WORKER_BIN.
[[nodiscard]] std::string defaultWorkerBin();

}  // namespace mpcp::exec::fabric
