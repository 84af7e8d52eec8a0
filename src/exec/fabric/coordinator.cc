#include "exec/fabric/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/strf.h"
#include "exec/fabric/checkpoint.h"
#include "exec/fabric/clock.h"
#include "exec/fabric/socket.h"
#include "exec/interrupt.h"

namespace mpcp::exec::fabric {

namespace {

std::int64_t nowMs() { return steadyNowMs(); }

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::string name;
  bool handshaken = false;
  std::deque<std::string> leased;  ///< grant order; front = likely running
  std::int64_t last_seen_ms = 0;
  std::int64_t connected_ms = 0;
  std::int64_t last_progress_ms = 0;  ///< last grant or RESULT
  std::unique_ptr<FrameSink> sink;    ///< outbound seam (chaos injects here)
  ChaosLink* chaos = nullptr;         ///< sink downcast when chaos is on

  [[nodiscard]] bool send(FrameType type, const std::string& payload) {
    return sink->send(type, payload);
  }
};

struct SpawnedWorker {
  pid_t pid = -1;
  int log_fd = -1;  // already closed in parent; kept for bookkeeping only
};

/// All coordinator state; confined to the runFleet thread.
struct Coordinator {
  const FleetConfig& config;
  FleetOutcome out;
  std::deque<std::string> pending;
  std::set<std::string> done;
  std::map<std::string, int> attempts;
  std::vector<std::unique_ptr<Conn>> conns;
  std::set<std::string> seen_names;
  std::vector<pid_t> spawned;
  std::size_t total_keys = 0;
  int listen_fd = -1;
  std::string unix_path;  ///< unlink on shutdown when non-empty
  std::int64_t last_live_ms = 0;
  std::int64_t armed_at_ms = 0;   ///< campaign start; chaos window clock
  std::uint64_t chaos_generation = 0;  ///< fresh verdicts per accepted conn
  std::int64_t last_ckpt_ms = 0;
  bool ckpt_dirty = false;
  bool ckpt_urgent = false;       ///< attempt charged since the last save

  explicit Coordinator(const FleetConfig& c) : config(c) {}

  /// Folds a dying link's injection stats into the fleet counters.
  void foldChaos(const Conn& conn) {
    if (conn.chaos == nullptr) return;
    const ChaosStats& s = conn.chaos->stats();
    out.counters.chaos_dropped += s.dropped;
    out.counters.chaos_delayed += s.delayed;
    out.counters.chaos_duplicated += s.duplicated;
    out.counters.chaos_reordered += s.reordered;
    out.counters.chaos_truncated += s.truncated;
  }

  void maybeCheckpoint(std::int64_t now, bool force) {
    if (config.checkpoint_path.empty()) return;
    if (!ckpt_dirty && !ckpt_urgent) return;
    if (!force && !ckpt_urgent &&
        now - last_ckpt_ms < config.checkpoint_interval_ms) {
      return;
    }
    CoordinatorCheckpoint ckpt;
    ckpt.fingerprint = config.fingerprint;
    ckpt.attempts = attempts;
    for (const auto& cp : conns) {
      for (const std::string& key : cp->leased) {
        if (done.count(key) == 0) ckpt.in_flight.insert(key);
      }
    }
    try {
      saveCheckpoint(config.checkpoint_path, ckpt);
      ++out.counters.checkpoints_written;
      last_ckpt_ms = now;
      ckpt_dirty = ckpt_urgent = false;
    } catch (const std::exception& e) {
      // A failed checkpoint degrades takeover quality, never the run.
      note(strf("checkpoint write failed: ", e.what()));
      last_ckpt_ms = now;  // don't hammer a broken disk every pass
      ckpt_urgent = false;
    }
  }

  void note(const std::string& message) {
    if (config.log != nullptr) *config.log << "fleet: " << message << "\n";
  }

  void commit() {
    if (config.on_commit) config.on_commit();
  }

  [[nodiscard]] std::size_t liveWorkers() const {
    std::size_t n = 0;
    for (const auto& c : conns) {
      if (c->handshaken) ++n;
    }
    return n;
  }

  void finishOk(const FleetResult& result) {
    done.insert(result.key);
    ++out.completed;
    config.on_result(result);
  }

  void finishFailed(const std::string& key, const std::string& error) {
    done.insert(key);
    ++out.failed;
    if (config.on_fail) config.on_fail(key, error);
  }

  /// Requeues a dying connection's leases. The head key — the one the
  /// worker was most likely executing — is charged an attempt so a
  /// poison key cannot reap the fleet forever.
  void requeueLeases(Conn& conn, bool charge_head) {
    bool head = true;
    std::vector<std::string> back;
    for (const std::string& key : conn.leased) {
      if (done.count(key) != 0) {
        head = false;
        continue;
      }
      if (head && charge_head) {
        const int n = ++attempts[key];
        ckpt_urgent = true;
        if (n >= config.max_attempts) {
          note(strf("key ", key, " failed ", n,
                    " workers; failing it permanently"));
          finishFailed(key, strf("worker died ", n,
                                 " times while running this key"));
          head = false;
          continue;
        }
      }
      head = false;
      ++out.counters.leases_expired;
      back.push_back(key);
    }
    // Requeue at the front, preserving order: interrupted work finishes
    // before fresh grants so the tail stays short.
    for (auto it = back.rbegin(); it != back.rend(); ++it) {
      pending.push_front(*it);
    }
    conn.leased.clear();
  }

  void dropConn(std::size_t i, bool charge_head, const std::string& why) {
    Conn& conn = *conns[i];
    if (!why.empty()) {
      note(strf("dropping ", conn.name.empty() ? strf("fd", conn.fd)
                                               : conn.name,
                ": ", why));
    }
    requeueLeases(conn, charge_head);
    foldChaos(conn);
    ::close(conn.fd);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void grantLeases() {
    const std::size_t live = liveWorkers();
    if (live == 0) return;
    for (auto& cp : conns) {
      Conn& conn = *cp;
      if (!conn.handshaken || !conn.leased.empty() || pending.empty()) {
        continue;
      }
      std::size_t chunk;
      if (config.lease_chunk > 0) {
        chunk = static_cast<std::size_t>(config.lease_chunk);
      } else {
        chunk = std::clamp<std::size_t>(pending.size() / (2 * live), 1, 64);
      }
      chunk = std::min(chunk, pending.size());
      std::string payload;
      for (std::size_t k = 0; k < chunk; ++k) {
        const std::string key = pending.front();
        pending.pop_front();
        conn.leased.push_back(key);
        if (!payload.empty()) payload += ' ';
        payload += key;
        ++out.counters.leases_granted;
        if (config.on_grant) config.on_grant(key);
      }
      conn.last_progress_ms = nowMs();
      ckpt_dirty = true;
      commit();  // the lease's start records, before a worker sees it
      if (!conn.send(FrameType::kLease, payload)) {
        // The connection died under us; the usual drop path reclaims the
        // keys on the next loop pass (recv will see EOF/error).
        note(strf("LEASE send to ", conn.name, " failed"));
      }
    }
  }

  /// With the pending queue dry and a worker idle, revoke the tail half
  /// of the slowest straggler's unstarted leases.
  void stealFromStragglers() {
    if (!pending.empty()) return;
    bool idle = false;
    for (const auto& c : conns) {
      if (c->handshaken && c->leased.empty()) idle = true;
    }
    if (!idle) return;
    Conn* victim = nullptr;
    for (const auto& c : conns) {
      if (c->handshaken && c->leased.size() >= 2 &&
          (victim == nullptr || c->leased.size() > victim->leased.size())) {
        victim = c.get();
      }
    }
    if (victim == nullptr) return;
    const std::size_t take = victim->leased.size() / 2;
    std::string payload;
    std::vector<std::string> stolen;
    for (std::size_t k = 0; k < take; ++k) {
      stolen.push_back(victim->leased.back());
      victim->leased.pop_back();
    }
    // Stolen from the tail, requeued in original order.
    for (auto it = stolen.rbegin(); it != stolen.rend(); ++it) {
      if (!payload.empty()) payload += ' ';
      payload += *it;
      pending.push_back(*it);
      ++out.counters.leases_stolen;
    }
    if (!victim->send(FrameType::kSteal, payload)) {
      note(strf("STEAL send to ", victim->name, " failed"));
    }
    note(strf("stole ", take, " lease(s) from straggler ", victim->name));
  }

  /// Returns false when the connection must be dropped (caller handles).
  bool handleFrame(Conn& conn, const Frame& frame) {
    conn.last_seen_ms = nowMs();
    switch (frame.type) {
      case FrameType::kHello: {
        if (conn.handshaken) {
          ++out.counters.frames_rejected;
          note(strf("unexpected second HELLO from ", conn.name));
          return false;
        }
        // "fabric 1\nname=<w>\nkinds=<k1,k2>"
        std::string name;
        std::string kinds;
        bool version_ok = false;
        std::size_t pos = 0;
        while (pos <= frame.payload.size()) {
          std::size_t nl = frame.payload.find('\n', pos);
          if (nl == std::string::npos) nl = frame.payload.size();
          const std::string line = frame.payload.substr(pos, nl - pos);
          if (line == strf("fabric ", int{kWireVersion})) version_ok = true;
          if (line.rfind("name=", 0) == 0) name = line.substr(5);
          if (line.rfind("kinds=", 0) == 0) kinds = line.substr(6);
          pos = nl + 1;
        }
        const std::string want = fleetBodyKind(config.body_spec);
        const bool kind_ok =
            ("," + kinds + ",").find("," + want + ",") != std::string::npos;
        if (!version_ok || !kind_ok) {
          ++out.counters.handshake_rejects;
          const std::string reason =
              !version_ok ? "unrecognized HELLO"
                          : strf("worker lacks body kind '", want,
                                 "' (has: ", kinds, ")");
          note(strf("rejecting handshake: ", reason));
          (void)conn.send(FrameType::kReject, reason);
          return false;
        }
        conn.name = name.empty() ? strf("w-fd", conn.fd) : name;
        conn.handshaken = true;
        conn.last_progress_ms = nowMs();
        if (conn.chaos != nullptr) conn.chaos->setPeer(conn.name);
        ++out.counters.workers_connected;
        if (!seen_names.insert(conn.name).second) {
          ++out.counters.worker_reconnects;
          note(strf("worker ", conn.name, " reconnected"));
        } else {
          note(strf("worker ", conn.name, " joined"));
        }
        return conn.send(FrameType::kWelcome,
                         config.fingerprint + "\n" + config.body_spec);
      }
      case FrameType::kResult: {
        if (!conn.handshaken) {
          ++out.counters.frames_rejected;
          return false;
        }
        // "<key> ok|fail\n<bytes>"
        const std::size_t nl = frame.payload.find('\n');
        const std::string header =
            nl == std::string::npos ? frame.payload
                                    : frame.payload.substr(0, nl);
        const std::size_t sp = header.find(' ');
        const std::string key =
            sp == std::string::npos ? header : header.substr(0, sp);
        const std::string status =
            sp == std::string::npos ? "" : header.substr(sp + 1);
        const std::string bytes =
            nl == std::string::npos ? "" : frame.payload.substr(nl + 1);
        if (key.empty() || (status != "ok" && status != "fail")) {
          ++out.counters.frames_rejected;
          note(strf("malformed RESULT header from ", conn.name));
          return false;
        }
        conn.last_progress_ms = nowMs();
        ckpt_dirty = true;
        const auto it =
            std::find(conn.leased.begin(), conn.leased.end(), key);
        if (it != conn.leased.end()) conn.leased.erase(it);
        if (done.count(key) != 0) {
          ++out.counters.duplicate_results;
          return true;  // a steal/reap raced the result; bytes identical
        }
        if (status == "ok") {
          FleetResult r;
          r.key = key;
          r.ok = true;
          r.payload = bytes;
          r.worker = conn.name;
          finishOk(r);
          return true;
        }
        // Body-level failure: charge an attempt and regrant, so a
        // transient failure heals and a deterministic one caps out.
        const int n = ++attempts[key];
        ckpt_urgent = true;
        if (n >= config.max_attempts) {
          finishFailed(key, bytes.empty() ? "run body failed" : bytes);
        } else {
          pending.push_back(key);
        }
        return true;
      }
      case FrameType::kHeartbeat:
        return true;  // last_seen already refreshed
      case FrameType::kBye:
        note(strf("worker ", conn.name, " left"));
        requeueLeases(conn, /*charge_head=*/false);
        return false;  // drop without charging
      case FrameType::kWelcome:
      case FrameType::kReject:
      case FrameType::kLease:
      case FrameType::kSteal:
        ++out.counters.frames_rejected;
        note(strf("unexpected ", toString(frame.type), " frame from worker ",
                  conn.name));
        return false;
    }
    return true;
  }

  void drainLocal() {
    while (!pending.empty() && !interrupted()) {
      const std::string key = pending.front();
      pending.pop_front();
      ++out.counters.degraded_local_runs;
      if (config.on_grant) config.on_grant(key);
      commit();  // an in-thread key can take the journaling process down
      FleetResult r;
      try {
        r = config.local_fn(key);
      } catch (const std::exception& e) {
        r.key = key;
        r.ok = false;
        r.payload = e.what();
      }
      r.key = key;
      r.worker = "local";
      if (r.ok) {
        finishOk(r);
      } else {
        finishFailed(key, r.payload);
      }
    }
  }

  void spawnWorker(int index, const Address& addr) {
    std::string bin = config.worker_bin;
    if (bin.empty()) bin = defaultWorkerBin();
    const std::string name = strf("w", index);
    const std::string log_path =
        config.shard_dir.empty() ? "" : config.shard_dir + "/" + name + ".log";
    const std::string hb = strf(config.timing.heartbeat_ms);
    const std::string chaos_spec =
        config.chaos.empty() ? "" : formatChaosSchedule(config.chaos);

    const pid_t pid = ::fork();
    if (pid < 0) {
      note(strf("fork for worker ", name, " failed: ", std::strerror(errno)));
      return;
    }
    if (pid == 0) {
      if (!log_path.empty()) {
        const int log_fd = ::open(log_path.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (log_fd >= 0) {
          ::dup2(log_fd, 1);
          ::dup2(log_fd, 2);
          if (log_fd > 2) ::close(log_fd);
        }
      }
      if (chaos_spec.empty()) {
        ::execl(bin.c_str(), bin.c_str(), "--connect", addr.text.c_str(),
                "--name", name.c_str(), "--heartbeat-ms", hb.c_str(),
                static_cast<char*>(nullptr));
      } else {
        ::execl(bin.c_str(), bin.c_str(), "--connect", addr.text.c_str(),
                "--name", name.c_str(), "--heartbeat-ms", hb.c_str(),
                "--chaos", chaos_spec.c_str(),
                static_cast<char*>(nullptr));
      }
      // exec failed: exit without touching the parent's stdio/atexit.
      ::_exit(127);
    }
    registerWorkerPid(pid);
    spawned.push_back(pid);
    note(strf("spawned worker ", name, " (pid ", pid, ") -> ", addr.text));
  }

  void reapSpawned() {
    for (pid_t& pid : spawned) {
      if (pid <= 0) continue;
      int st = 0;
      if (::waitpid(pid, &st, WNOHANG) == pid) {
        unregisterWorkerPid(pid);
        pid = -1;  // socket EOF/reap handles its leases
      }
    }
  }

  void shutdown() {
    for (auto& cp : conns) {
      // The farewell goes straight to the socket: a BYE eaten by chaos
      // would leave real workers waiting out their reconnect budget.
      (void)sendFrame(cp->fd, FrameType::kBye, "");
      foldChaos(*cp);
      ::close(cp->fd);
    }
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (!unix_path.empty()) ::unlink(unix_path.c_str());
    // Give spawned workers a moment to exit on the BYE/EOF, then SIGKILL
    // whatever is left (a wedged worker never reads the BYE).
    for (int i = 0; i < 40; ++i) {
      reapSpawned();
      bool any = false;
      for (const pid_t pid : spawned) {
        if (pid > 0) any = true;
      }
      if (!any) return;
      ::poll(nullptr, 0, 10);
    }
    for (pid_t& pid : spawned) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      unregisterWorkerPid(pid);
      pid = -1;
    }
  }
};

}  // namespace

std::string defaultWorkerBin() {
  const char* env = std::getenv("MPCP_WORKER_BIN");
  if (env != nullptr && env[0] != '\0') return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "mpcp_worker";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "mpcp_worker";
  return path.substr(0, slash) + "/mpcp_worker";
}

FleetOutcome runFleet(const std::vector<std::string>& keys,
                      const FleetConfig& config) {
  MPCP_CHECK(static_cast<bool>(config.on_result),
             "runFleet requires an on_result callback");
  ignoreSigpipe();

  Coordinator co(config);
  co.total_keys = keys.size();
  co.attempts = config.initial_attempts;
  for (const std::string& key : keys) {
    // Takeover fail-fast: a key that already burned its attempt budget
    // under the previous coordinator fails now instead of re-reaping the
    // new fleet from zero.
    const auto it = co.attempts.find(key);
    if (it != co.attempts.end() && it->second >= config.max_attempts) {
      co.note(strf("key ", key, " already failed ", it->second,
                   " attempt(s) before takeover; failing it permanently"));
      co.finishFailed(key, strf("attempt budget exhausted (", it->second,
                                ") before coordinator takeover"));
      continue;
    }
    co.pending.push_back(key);
  }
  if (keys.empty()) return co.out;

  // Bind the listening socket up front; a bad address is a setup error,
  // not a mid-flight condition.
  std::string listen_text = config.listen;
  if (listen_text.empty()) {
    listen_text = "unix:" +
                  (config.shard_dir.empty() ? std::string("mpcp-fleet.sock")
                                            : config.shard_dir + "/fleet.sock");
  }
  Address addr;
  std::string error;
  if (!parseAddress(listen_text, addr, error)) {
    throw ConfigError("fleet listen address: " + error);
  }
  co.listen_fd = listenOn(addr, error);
  if (co.listen_fd < 0) throw ConfigError("fleet: " + error);
  if (addr.is_unix) co.unix_path = addr.path;
  co.note(strf("listening on ", addr.text, " for ", keys.size(), " key(s)"));

  for (int i = 0; i < config.spawn_workers; ++i) co.spawnWorker(i, addr);

  co.last_live_ms = co.armed_at_ms = co.last_ckpt_ms = nowMs();
  if (!config.chaos.empty()) {
    co.note(strf("chaos armed: ", formatChaosSchedule(config.chaos)));
  }
  char buf[65536];

  while (co.done.size() < co.total_keys) {
    if (interrupted()) {
      co.out.interrupted = true;
      break;
    }

    // Tick: wait for sockets (or the timeout) before each pass.
    std::vector<pollfd> fds;
    fds.push_back({co.listen_fd, POLLIN, 0});
    for (const auto& cp : co.conns) fds.push_back({cp->fd, POLLIN, 0});
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           config.timing.poll_ms);

    // Accept new connections (listen fd is nonblocking).
    for (;;) {
      const int cfd = ::accept(co.listen_fd, nullptr, nullptr);
      if (cfd < 0) break;
      ::fcntl(cfd, F_SETFD, FD_CLOEXEC);
      auto conn = std::make_unique<Conn>();
      conn->fd = cfd;
      conn->connected_ms = conn->last_seen_ms = nowMs();
      if (config.chaos.empty()) {
        conn->sink = std::make_unique<FrameSink>(cfd);
      } else {
        auto link = std::make_unique<ChaosLink>(&config.chaos, cfd,
                                                strf("fd", cfd),
                                                co.armed_at_ms,
                                                ++co.chaos_generation);
        conn->chaos = link.get();
        conn->sink = std::move(link);
      }
      co.conns.push_back(std::move(conn));
    }

    // Drain every connection and process its frames. A read error, torn
    // stream, or poisoned decoder drops the connection and requeues its
    // leases (charging the head key — the worker died on the job).
    for (std::size_t i = 0; i < co.conns.size();) {
      Conn& conn = *co.conns[i];
      bool dead = false;
      bool eof = false;
      std::string why;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          conn.decoder.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        dead = true;
        why = strf("read error: ", std::strerror(errno));
        break;
      }
      if (!dead) {
        // Frames buffered ahead of an EOF still count: a worker that
        // sends its final RESULT or BYE and closes in the same instant
        // must not lose that frame to the close.
        for (;;) {
          const FrameDecoder::Result r = conn.decoder.next();
          if (r.status == FrameDecoder::Status::kNeedMore) break;
          if (r.status == FrameDecoder::Status::kError) {
            ++co.out.counters.frames_rejected;
            dead = true;
            why = r.error;
            break;
          }
          if (!co.handleFrame(conn, r.frame)) {
            dead = true;
            why.clear();  // handleFrame already logged + requeued (BYE)
            break;
          }
        }
      }
      if (!dead && eof) {
        dead = true;
        why = conn.decoder.midFrame() ? "connection closed mid-frame"
                                      : "connection closed";
        if (conn.decoder.midFrame()) ++co.out.counters.frames_rejected;
      }
      if (dead) {
        co.dropConn(i, /*charge_head=*/true, why);
      } else {
        ++i;
      }
    }

    const std::int64_t now = nowMs();

    // Pump chaos delay/reorder queues; held frames come due here.
    for (const auto& cp : co.conns) cp->sink->tick(now);

    // Handshake timeout: a connection that never says a valid HELLO is
    // dropped (it holds no leases, so nothing to requeue).
    for (std::size_t i = 0; i < co.conns.size();) {
      Conn& conn = *co.conns[i];
      if (!conn.handshaken &&
          now - conn.connected_ms > config.timing.handshake_timeout_ms) {
        co.dropConn(i, false, "no HELLO before the handshake timeout");
      } else {
        ++i;
      }
    }

    // Reap: a handshaken worker silent past the lease deadline is dead
    // or wedged; either way its keys go back to the queue.
    for (std::size_t i = 0; i < co.conns.size();) {
      Conn& conn = *co.conns[i];
      if (conn.handshaken &&
          deadlineExpired(now, conn.last_seen_ms,
                          config.timing.lease_deadline_ms)) {
        ++co.out.counters.workers_reaped;
        co.dropConn(i, /*charge_head=*/true,
                    strf("silent for ", now - conn.last_seen_ms,
                         "ms (deadline ", config.timing.lease_deadline_ms,
                         "ms); reaping"));
      } else {
        ++i;
      }
    }

    // No-progress reap: a worker that heartbeats but never RESULTs while
    // holding leases lost its LEASE frame (or is wedged mid-body past any
    // reasonable budget). Heartbeats alone must not keep it alive, or a
    // single dropped LEASE deadlocks the campaign. Workers are silent
    // while executing a key anyway, so this fires no earlier than the
    // silence reap would for a genuinely busy worker.
    for (std::size_t i = 0; i < co.conns.size();) {
      Conn& conn = *co.conns[i];
      if (conn.handshaken && !conn.leased.empty() &&
          deadlineExpired(now, conn.last_progress_ms,
                          config.timing.lease_deadline_ms)) {
        ++co.out.counters.workers_reaped;
        ++co.out.counters.no_progress_reaps;
        co.dropConn(i, /*charge_head=*/true,
                    strf("no result for ", now - conn.last_progress_ms,
                         "ms with ", conn.leased.size(),
                         " lease(s) held; reaping"));
      } else {
        ++i;
      }
    }

    co.reapSpawned();
    co.grantLeases();
    co.stealFromStragglers();
    co.commit();  // this pass's done/fail records, before any checkpoint
    co.maybeCheckpoint(now, /*force=*/false);

    // Graceful degradation: no live worker for degrade_after_ms and a
    // local fallback available -> drain the remaining keys in-process.
    if (co.liveWorkers() > 0) {
      co.last_live_ms = now;
    } else if (config.local_fn &&
               now - co.last_live_ms >= config.timing.degrade_after_ms &&
               !co.pending.empty()) {
      co.note(strf("no live workers for ", now - co.last_live_ms,
                   "ms; running ", co.pending.size(), " key(s) locally"));
      co.drainLocal();
    }
  }

  if (interrupted()) co.out.interrupted = true;
  co.commit();
  if (!config.checkpoint_path.empty()) {
    if (co.out.interrupted) {
      // A last snapshot so a takeover after Ctrl-C is as informed as one
      // after SIGKILL-between-checkpoints at worst.
      co.ckpt_dirty = true;
      co.maybeCheckpoint(nowMs(), /*force=*/true);
    } else {
      ::unlink(config.checkpoint_path.c_str());
    }
  }
  co.shutdown();
  return co.out;
}

}  // namespace mpcp::exec::fabric
