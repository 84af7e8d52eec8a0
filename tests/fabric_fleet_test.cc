// End-to-end coordinator/worker fleet tests (ISSUE 9 tentpole), run
// in-process over loopback unix sockets: the coordinator loop on the
// test thread, runWorker() on std::threads, and a registered "test-v1"
// body whose closure state lets tests stage wedges and count runs.
// Covers the lease lifecycle, work-stealing from stragglers, reaping a
// wedged worker past its heartbeat deadline, garbage-connection
// quarantine, handshake rejection, and graceful degradation.
#include "exec/fabric/coordinator.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "exec/fabric/socket.h"
#include "exec/fabric/wire.h"
#include "exec/fabric/work.h"
#include "exec/fabric/worker.h"
#include "exec/interrupt.h"

namespace mpcp::exec::fabric {
namespace {

std::string tempSock(const std::string& name) {
  // Unix socket paths are capped around 100 bytes; keep them short.
  return "unix:" + testing::TempDir() + "/fab_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<std::string> makeKeys(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) keys.push_back(std::string("k").append(std::to_string(i)));
  return keys;
}

// Shared state for the registered test body. The registry holds the
// factory for the whole process, so tests point this at their own
// fixture state before spawning workers.
struct BodyState {
  std::atomic<int> runs{0};
  std::atomic<int> sleep_ms{0};
  // One-shot wedge: the body sleeps wedge_ms the first time it sees
  // wedge_key, silently blowing the lease deadline.
  std::string wedge_key;
  std::atomic<int> wedge_ms{0};
  std::atomic<bool> wedge_armed{false};
};

BodyState* g_body_state = nullptr;

void registerTestBody() {
  static bool once = [] {
    registerFleetBodyKind("test-v1", [](const std::string&) -> FleetBodyFn {
      return [](const std::string& key) {
        BodyState* state = g_body_state;
        if (state != nullptr) {
          state->runs.fetch_add(1);
          if (key == state->wedge_key &&
              state->wedge_armed.exchange(false)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(state->wedge_ms.load()));
          } else if (state->sleep_ms.load() > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(state->sleep_ms.load()));
          }
        }
        FleetResult r;
        r.key = key;
        r.ok = true;
        r.payload = key + ",payload";
        return r;
      };
    });
    return true;
  }();
  (void)once;
}

struct Collected {
  std::mutex mu;
  std::map<std::string, std::string> payloads;
  std::map<std::string, std::string> worker_of;
  std::vector<std::string> failures;
};

FleetConfig baseConfig(const std::string& listen, Collected* got) {
  FleetConfig c;
  c.listen = listen;
  c.spawn_workers = 0;  // tests run workers as in-process threads
  c.body_spec = "test-v1";
  c.fingerprint = "fab-test-fp";
  c.timing.heartbeat_ms = 100;
  c.timing.lease_deadline_ms = 2000;
  c.timing.handshake_timeout_ms = 2000;
  c.timing.degrade_after_ms = 60000;  // effectively off unless a test opts in
  c.timing.poll_ms = 10;
  c.log = &std::cerr;
  c.on_result = [got](const FleetResult& r) {
    std::lock_guard<std::mutex> lock(got->mu);
    got->payloads[r.key] = r.payload;
    got->worker_of[r.key] = r.worker;
  };
  c.on_fail = [got](const std::string& key, const std::string& error) {
    std::lock_guard<std::mutex> lock(got->mu);
    got->failures.push_back(key + ": " + error);
  };
  return c;
}

std::thread workerThread(const std::string& connect, const std::string& name,
                         int* exit_code) {
  return std::thread([connect, name, exit_code] {
    WorkerConfig w;
    w.connect = connect;
    w.name = name;
    w.heartbeat_ms = 100;
    w.log = &std::cerr;
    *exit_code = runWorker(w);
  });
}

class FabricFleet : public testing::Test {
 protected:
  void SetUp() override {
    ignoreSigpipe();
    registerTestBody();
    g_body_state = &state_;
  }
  void TearDown() override { g_body_state = nullptr; }
  BodyState state_;
};

TEST_F(FabricFleet, SingleWorkerCompletesAllKeysAndLeavesOnBye) {
  const std::string addr = tempSock("basic");
  Collected got;
  const FleetConfig config = baseConfig(addr, &got);

  int worker_rc = -1;
  std::thread worker = workerThread(addr, "alpha", &worker_rc);
  const FleetOutcome out = runFleet(makeKeys(8), config);
  worker.join();

  EXPECT_EQ(out.completed, 8u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_FALSE(out.interrupted);
  EXPECT_EQ(worker_rc, 0) << "worker should exit 0 on BYE";
  EXPECT_EQ(out.counters.workers_connected, 1u);
  EXPECT_GE(out.counters.leases_granted, 8u);
  EXPECT_EQ(got.payloads.size(), 8u);
  EXPECT_EQ(got.payloads.at("k3"), "k3,payload");
  EXPECT_EQ(got.worker_of.at("k3"), "alpha");
  EXPECT_TRUE(got.failures.empty());
}

TEST_F(FabricFleet, LateWorkerStealsFromTheStraggler) {
  const std::string addr = tempSock("steal");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  // Lease everything to the first worker in one chunk, make each run
  // slow, then bring up a second worker with nothing left to grant: the
  // only way it gets work is stealing the straggler's tail.
  const int n = 16;
  config.lease_chunk = n;
  state_.sleep_ms = 30;

  int rc_a = -1;
  int rc_b = -1;
  std::thread a = workerThread(addr, "slowpoke", &rc_a);
  std::thread b;
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    b = workerThread(addr, "thief", &rc_b);
  });
  const FleetOutcome out = runFleet(makeKeys(n), config);
  starter.join();
  a.join();
  b.join();

  EXPECT_EQ(out.completed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(out.failed, 0u);
  EXPECT_GE(out.counters.leases_stolen, 1u);
  EXPECT_EQ(rc_a, 0);
  EXPECT_EQ(rc_b, 0);
  // The thief must have actually run some of the stolen keys.
  int by_thief = 0;
  for (const auto& [key, worker] : got.worker_of) {
    by_thief += worker == "thief" ? 1 : 0;
  }
  EXPECT_GE(by_thief, 1);
}

TEST_F(FabricFleet, WedgedWorkerIsReapedAndItsKeysReassigned) {
  const std::string addr = tempSock("reap");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  // A worker cannot heartbeat mid-body (single-threaded session), so a
  // body that outlives the lease deadline IS the wedge.
  config.timing.lease_deadline_ms = 300;
  config.lease_chunk = 1;
  state_.wedge_key = "k2";
  state_.wedge_ms = 900;
  state_.wedge_armed = true;

  int worker_rc = -1;
  std::thread worker = workerThread(addr, "wedgy", &worker_rc);
  const FleetOutcome out = runFleet(makeKeys(6), config);
  worker.join();

  EXPECT_EQ(out.completed, 6u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_GE(out.counters.workers_reaped, 1u);
  EXPECT_GE(out.counters.leases_expired, 1u);
  // The same worker reconnects after its dropped RESULT and finishes
  // the campaign (wedge is one-shot); the regrant re-runs k2.
  EXPECT_GE(out.counters.worker_reconnects, 1u);
  EXPECT_EQ(got.payloads.size(), 6u);
  EXPECT_EQ(got.payloads.at("k2"), "k2,payload");
}

TEST_F(FabricFleet, GarbageConnectionIsQuarantinedNotFatal) {
  const std::string addr = tempSock("garbage");
  Collected got;
  const FleetConfig config = baseConfig(addr, &got);

  int worker_rc = -1;
  std::thread worker;
  std::thread attacker([&] {
    Address a;
    std::string err;
    ASSERT_TRUE(parseAddress(addr, a, err));
    // Let the coordinator come up, then open a connection that speaks
    // no protocol at all.
    int fd = -1;
    for (int i = 0; i < 100 && fd < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      fd = connectTo(a, err);
    }
    ASSERT_GE(fd, 0) << err;
    const std::string junk = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
    (void)sendAll(fd, junk.data(), junk.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(fd);
    // Only now start the real worker, so the campaign cannot finish
    // before the garbage is seen.
    worker = workerThread(addr, "honest", &worker_rc);
  });
  const FleetOutcome out = runFleet(makeKeys(5), config);
  attacker.join();
  worker.join();

  EXPECT_EQ(out.completed, 5u);
  EXPECT_GE(out.counters.frames_rejected, 1u);
  EXPECT_EQ(worker_rc, 0);
  EXPECT_TRUE(got.failures.empty());
}

TEST_F(FabricFleet, RejectsHelloForUnknownBodyKind) {
  const std::string addr = tempSock("reject");
  Collected got;
  const FleetConfig config = baseConfig(addr, &got);

  int worker_rc = -1;
  std::thread worker;
  std::atomic<bool> saw_reject{false};
  std::thread impostor([&] {
    Address a;
    std::string err;
    ASSERT_TRUE(parseAddress(addr, a, err));
    int fd = -1;
    for (int i = 0; i < 100 && fd < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      fd = connectTo(a, err);
    }
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(sendFrame(fd, FrameType::kHello,
                          "fabric 1\nname=impostor\nkinds=other-v9"));
    FrameDecoder decoder;
    char buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline && !saw_reject) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        const FrameDecoder::Result r = decoder.next();
        if (r.status != FrameDecoder::Status::kFrame) break;
        if (r.frame.type == FrameType::kReject) saw_reject = true;
      }
    }
    ::close(fd);
    worker = workerThread(addr, "honest", &worker_rc);
  });
  const FleetOutcome out = runFleet(makeKeys(4), config);
  impostor.join();
  worker.join();

  EXPECT_EQ(out.completed, 4u);
  EXPECT_TRUE(saw_reject.load());
  EXPECT_GE(out.counters.handshake_rejects, 1u);
  EXPECT_EQ(worker_rc, 0);
}

TEST_F(FabricFleet, DegradesToLocalDrainWhenNoWorkersArrive) {
  const std::string addr = tempSock("degrade");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  config.timing.degrade_after_ms = 100;
  config.local_fn = [](const std::string& key) {
    FleetResult r;
    r.key = key;
    r.ok = true;
    r.payload = key + ",local";
    return r;
  };

  const FleetOutcome out = runFleet(makeKeys(5), config);
  EXPECT_EQ(out.completed, 5u);
  EXPECT_EQ(out.counters.degraded_local_runs, 5u);
  EXPECT_EQ(got.payloads.at("k0"), "k0,local");
  EXPECT_EQ(got.worker_of.at("k0"), "local");
}

TEST_F(FabricFleet, ChaoticNetworkStillCompletesEveryKey) {
  // Chaos on BOTH sides of every link (ISSUE 10): duplicated, reordered,
  // delayed, and dropped frames. Rates are hostile but survivable; the
  // invariant is completion with every payload intact, courtesy of
  // reaping, requeue, and idempotent RESULT handling.
  const std::string addr = tempSock("chaos");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  config.chaos =
      parseChaosSchedule("seed:5,drop:*:50,dup:*:120,reorder:*:100,"
                         "delay:*:10:300");
  config.max_attempts = 10;

  int rc_a = -1;
  int rc_b = -1;
  std::thread a([&] {
    WorkerConfig w;
    w.connect = addr;
    w.name = "stormy";
    w.heartbeat_ms = 100;
    w.chaos = config.chaos;
    w.log = &std::cerr;
    rc_a = runWorker(w);
  });
  std::thread b = workerThread(addr, "clearsky", &rc_b);
  const FleetOutcome out = runFleet(makeKeys(12), config);
  a.join();
  b.join();

  EXPECT_EQ(out.completed, 12u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(got.payloads.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    const std::string k = "k" + std::to_string(i);
    EXPECT_EQ(got.payloads.at(k), k + ",payload");
  }
  // The coordinator folded its links' chaos stats into the counters.
  const std::uint64_t injected =
      out.counters.chaos_dropped + out.counters.chaos_delayed +
      out.counters.chaos_duplicated + out.counters.chaos_reordered;
  EXPECT_GE(injected, 1u);
}

TEST_F(FabricFleet, HeartbeatingLeaseHoarderIsReapedForNoProgress) {
  // A raw-wire "worker" that handshakes, accepts a LEASE, then
  // heartbeats forever without ever sending RESULT. Heartbeats keep it
  // past the silence reap; only the no-progress reap (ISSUE 10) can
  // recover its key. Deterministic: no chaos, no timing races beyond
  // the deadline itself.
  const std::string addr = tempSock("hoard");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  config.timing.lease_deadline_ms = 400;
  config.lease_chunk = 1;

  std::atomic<bool> hoarder_leased{false};
  int honest_rc = -1;
  std::thread honest;
  std::thread hoarder([&] {
    Address a;
    std::string err;
    ASSERT_TRUE(parseAddress(addr, a, err));
    int fd = -1;
    for (int i = 0; i < 100 && fd < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      fd = connectTo(a, err);
    }
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(sendFrame(fd, FrameType::kHello,
                          "fabric 1\nname=hoarder\nkinds=test-v1"));
    FrameDecoder decoder;
    char buf[4096];
    auto last_hb = std::chrono::steady_clock::now();
    for (;;) {
      // Heartbeat at 100ms; never answer the lease.
      if (std::chrono::steady_clock::now() - last_hb >
          std::chrono::milliseconds(100)) {
        if (!sendFrame(fd, FrameType::kHeartbeat, "")) break;
        last_hb = std::chrono::steady_clock::now();
      }
      struct timeval tv = {0, 20000};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n == 0) break;  // reaped: coordinator hung up on us
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        break;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      for (;;) {
        const FrameDecoder::Result r = decoder.next();
        if (r.status != FrameDecoder::Status::kFrame) break;
        if (r.frame.type == FrameType::kLease) {
          if (!hoarder_leased.exchange(true)) {
            // Only now let the honest worker in, so the hoarder is
            // guaranteed to have claimed a key first.
            honest = workerThread(addr, "honest", &honest_rc);
          }
        }
        if (r.frame.type == FrameType::kBye) {
          ::close(fd);
          return;
        }
      }
    }
    ::close(fd);
  });

  const FleetOutcome out = runFleet(makeKeys(6), config);
  hoarder.join();
  honest.join();

  EXPECT_EQ(out.completed, 6u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_TRUE(hoarder_leased.load());
  EXPECT_GE(out.counters.no_progress_reaps, 1u);
  EXPECT_EQ(got.payloads.size(), 6u);
  EXPECT_EQ(honest_rc, 0);
}

TEST_F(FabricFleet, WorkerGivesUpAfterMaxReconnectAttempts) {
  // Permanently-gone coordinator (ISSUE 10 satellite): nobody listens at
  // the address, so the worker burns its capped backoff attempts and
  // exits 1 instead of spinning forever.
  WorkerConfig w;
  w.connect = tempSock("nobody-home");
  w.name = "orphan";
  w.reconnect = RetryPolicy{2, std::chrono::milliseconds(10),
                            std::chrono::milliseconds(20), 0};
  w.log = &std::cerr;
  EXPECT_EQ(runWorker(w), 1);
}

TEST_F(FabricFleet, EmptyKeysetFinishesImmediately) {
  Collected got;
  const FleetConfig config = baseConfig(tempSock("empty"), &got);
  const FleetOutcome out = runFleet({}, config);
  EXPECT_EQ(out.completed, 0u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_FALSE(out.interrupted);
}

// --- commit points ---------------------------------------------------------

/// The callback order of one runFleet: "grant <k>", "commit", "result <k>".
struct CallbackLog {
  std::mutex mu;
  std::vector<std::string> events;

  void add(const std::string& event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(event);
  }

  /// Wires on_grant/on_commit and wraps the config's on_result.
  void attach(FleetConfig& config) {
    config.on_grant = [this](const std::string& key) { add("grant " + key); };
    config.on_commit = [this] { add("commit"); };
    config.on_result = [this, inner = config.on_result](const FleetResult& r) {
      add("result " + r.key);
      inner(r);
    };
  }
};

/// Every result must follow a commit that came after its key's latest
/// grant, and the last callback must be a commit.
void expectResultsFollowCommits(const std::vector<std::string>& events) {
  ASSERT_FALSE(events.empty());
  std::map<std::string, bool> committed;
  for (const std::string& e : events) {
    if (e == "commit") {
      for (auto& [key, ok] : committed) ok = true;
    } else if (e.rfind("grant ", 0) == 0) {
      committed[e.substr(6)] = false;
    } else {
      const std::string key = e.substr(7);  // "result "
      ASSERT_TRUE(committed.count(key) != 0) << key << " was never granted";
      EXPECT_TRUE(committed[key]) << key << "'s start was not committed";
    }
  }
  EXPECT_EQ(events.back(), "commit");
}

TEST_F(FabricFleet, EveryResultFollowsACommitOfItsGrant) {
  const std::string addr = tempSock("commit");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  config.lease_chunk = 16;
  CallbackLog log;
  log.attach(config);

  int rc_a = -1;
  int rc_b = -1;
  std::thread a = workerThread(addr, "a", &rc_a);
  std::thread b = workerThread(addr, "b", &rc_b);
  const FleetOutcome out = runFleet(makeKeys(64), config);
  a.join();
  b.join();

  EXPECT_EQ(out.completed, 64u);
  EXPECT_EQ(got.payloads.size(), 64u);
  expectResultsFollowCommits(log.events);
}

TEST_F(FabricFleet, DegradedKeyRunsOnlyAfterItsStartIsCommitted) {
  const std::string addr = tempSock("commit_degrade");
  Collected got;
  FleetConfig config = baseConfig(addr, &got);
  config.timing.degrade_after_ms = 100;
  CallbackLog log;
  log.attach(config);
  config.local_fn = [&log](const std::string& key) {
    {
      std::lock_guard<std::mutex> lock(log.mu);
      const std::vector<std::string>& ev = log.events;
      EXPECT_GE(ev.size(), 2u);
      if (ev.size() >= 2) {
        EXPECT_EQ(ev[ev.size() - 2], "grant " + key);
        EXPECT_EQ(ev.back(), "commit") << key << " ran uncommitted";
      }
    }
    FleetResult r;
    r.key = key;
    r.ok = true;
    r.payload = key + ",local";
    return r;
  };

  const FleetOutcome out = runFleet(makeKeys(5), config);
  EXPECT_EQ(out.completed, 5u);
  EXPECT_EQ(out.counters.degraded_local_runs, 5u);
  expectResultsFollowCommits(log.events);
}

// ----- spec-string helpers shared by the body kinds -----

TEST(FleetBodySpec, SpecIntAcceptsOnlyWholeInt64Tokens) {
  const std::string spec =
      "k1 a=42 b=-7 c=12x d= e=9999999999999999999 f=+3 g=0x10";
  EXPECT_EQ(specInt(spec, "a"), 42);
  EXPECT_EQ(specInt(spec, "b"), -7);
  EXPECT_THROW((void)specInt(spec, "c"), ConfigError);        // trailing junk
  EXPECT_THROW((void)specInt(spec, "d"), ConfigError);        // empty
  EXPECT_THROW((void)specInt(spec, "e"), ConfigError);        // > int64
  EXPECT_THROW((void)specInt(spec, "f"), ConfigError);        // sign prefix
  EXPECT_THROW((void)specInt(spec, "g"), ConfigError);        // hex
  EXPECT_THROW((void)specInt(spec, "missing"), ConfigError);
}

TEST(FleetBodySpec, SpecDoubleRejectsOutOfRangeAndNonFinite) {
  const std::string spec =
      "k1 u=0.5 v=1e-3 w=-2 x=1e999 y=-1e999 z=inf m=-inf n=nan t=0.5x e=";
  EXPECT_EQ(specDouble(spec, "u"), 0.5);
  EXPECT_EQ(specDouble(spec, "v"), 1e-3);
  EXPECT_EQ(specDouble(spec, "w"), -2.0);
  for (const char* bad : {"x", "y", "z", "m", "n", "t", "e", "missing"}) {
    EXPECT_THROW((void)specDouble(spec, bad), ConfigError) << bad;
  }
  // formatSpecDouble's %.17g round-trips bit-exactly.
  for (const double d : {0.1, 0.45, 1.0 / 3.0, 1e300}) {
    EXPECT_EQ(specDouble("k x=" + formatSpecDouble(d), "x"), d);
  }
}

TEST(FleetBodySpec, SweepBodyRejectsNonFiniteUtilizationAtBuild) {
  registerSweepFleetBody();
  const FleetBodyFactory* factory = findFleetBodyKind("sweep-v1");
  ASSERT_NE(factory, nullptr);
  WorkloadParams params;
  params.processors = 2;
  params.tasks_per_processor = 2;
  const std::string good = makeSweepBodySpec("mpcp", 1, 2000, params, 0);
  const FleetBodyFn body = (*factory)(good);
  EXPECT_TRUE(body("s5").ok);

  const std::size_t at = good.find("util=") + 5;
  const std::size_t end = good.find(' ', at);
  for (const char* bad : {"1e999", "inf", "nan", "-1e999"}) {
    const std::string spec = good.substr(0, at) + bad + good.substr(end);
    EXPECT_THROW((void)(*factory)(spec), ConfigError) << spec;
  }
}

}  // namespace
}  // namespace mpcp::exec::fabric
