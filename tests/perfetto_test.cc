// Perfetto (Chrome trace-event JSON) exporter: structural validation
// with a minimal JSON parser, trace-event-format invariants, span
// pairing, and byte-exact golden files: the paper's Example 4 run plus
// one small scenario per remaining event class and escaping corner.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "core/simulate.h"
#include "fault/plan.h"
#include "model/task_system.h"
#include "taskgen/paper_examples.h"
#include "trace/perfetto.h"

namespace mpcp {
namespace {

// --- minimal JSON syntax checker -------------------------------------
// Enough of RFC 8259 to reject anything a real parser would: balanced
// structure, quoted strings with escapes, numbers, literals. Values are
// not interpreted, only consumed.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};
// ---------------------------------------------------------------------

std::string example4Trace() {
  const paper::Example3 ex = paper::makeExample3();
  const SimResult r = simulate(ProtocolKind::kMpcp, ex.sys, {.horizon = 40});
  std::ostringstream os;
  writePerfettoTrace(os, ex.sys, r);
  return os.str();
}

std::size_t countOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Perfetto, Example4ExportIsValidJson) {
  const std::string json = example4Trace();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Perfetto, Example4HasTrackMetadataAndSpans) {
  const std::string json = example4Trace();
  // One process_name record per processor.
  EXPECT_EQ(countOccurrences(json, "\"process_name\""), 3u);
  // Example 4's run has contention on the globals, so blocking spans
  // must be present, and every opened span must be closed.
  const std::size_t begins = countOccurrences(json, "\"ph\":\"b\"");
  const std::size_t ends = countOccurrences(json, "\"ph\":\"e\"");
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  // Execution segments made it across.
  EXPECT_GT(countOccurrences(json, "\"ph\":\"X\""), 0u);
}

TEST(Perfetto, ExportIsDeterministic) {
  EXPECT_EQ(example4Trace(), example4Trace());
}

TEST(Perfetto, EscapesHostileNamesIntoValidJson) {
  TaskSystemBuilder b(1);
  const ResourceId s = b.addResource("S\"quote\\slash");
  b.addTask({.name = "evil\"name\nnewline", .period = 20, .processor = 0,
             .body = Body{}.compute(1).section(s, 2)});
  b.addTask({.name = "peer", .period = 40, .phase = 1, .processor = 0,
             .body = Body{}.section(s, 1)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 60});
  std::ostringstream os;
  writePerfettoTrace(os, sys, r);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

std::string readGolden(const std::string& file) {
  std::ifstream in(std::string(MPCP_GOLDEN_DIR) + "/" + file);
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

TEST(Perfetto, Example4MatchesGoldenFile) {
  const std::string golden = readGolden("paper_example4_perfetto.json");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(example4Trace(), golden)
      << "regenerate tests/golden/paper_example4_perfetto.json if the "
         "exporter's output format changed intentionally";
}

TEST(Perfetto, NamesLongerThanTheWriteBufferStayWhole) {
  // The exporter writes through a fixed-size buffer; a name larger than
  // the whole buffer must still come out intact, once per event.
  const std::string name = std::string(100'000, 'x') + "\"";
  TaskSystemBuilder b(1);
  b.addTask({.name = name, .period = 10, .processor = 0,
             .body = Body{}.compute(3)});
  const TaskSystem sys = std::move(b).build();
  const SimResult r = simulate(ProtocolKind::kMpcp, sys, {.horizon = 30});
  std::ostringstream os;
  writePerfettoTrace(os, sys, r);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid());
  const std::string escaped = std::string(100'000, 'x') + "\\\"";
  EXPECT_EQ(countOccurrences(json, "\"name\":\"" + escaped + "\"}"), 1u);
  EXPECT_EQ(countOccurrences(json, "\"name\":\"" + escaped + "#"),
            r.segments.size());
}

// --- byte pins of every event class the exporter renders ---------------
// Example 4 only exercises X events in gcs/normal mode and closed
// blocking spans. Each scenario below pins the exporter's exact bytes
// for one more corner, and first asserts the run really reaches that
// corner, so a pin cannot silently stop covering what it names.

/// Task and resource names with every character class the JSON escaper
/// distinguishes: quote, backslash, newline, tab, a raw control byte
/// (rendered as \u0001) and multi-byte UTF-8 passed through verbatim.
const std::string kHostileTask =
    "hi \"q\" \\ n\nt\t c\x01" " \xcf\x84\xe2\x82\x81";
const std::string kHostileRes = "A\"\\\n\t\x01" "\xc3\xbc";

struct Rendered {
  SimResult result;
  std::string json;
};

Rendered render(ProtocolKind kind, const TaskSystem& sys, SimConfig config) {
  Rendered out{simulate(kind, sys, config), {}};
  std::ostringstream os;
  writePerfettoTrace(os, sys, out.result);
  out.json = os.str();
  return out;
}

void expectGolden(const std::string& json, const std::string& file) {
  EXPECT_TRUE(JsonChecker(json).valid()) << file;
  const std::string golden = readGolden(file);
  ASSERT_FALSE(golden.empty()) << "golden file " << file << " missing";
  EXPECT_EQ(json, golden) << "regenerate tests/golden/" << file
                          << " if the exporter's output format changed "
                             "intentionally";
}

std::size_t countEvents(const SimResult& r, Ev kind) {
  std::size_t n = 0;
  for (const TraceEvent& e : r.trace) n += e.kind == kind ? 1 : 0;
  return n;
}

/// One processor, MPCP's local PCP. "lo" holds A and nested B; the
/// hostile-named high task blocks on A's ceiling, is woken when B is
/// released, retries and loses again (a second kLockWait for the same
/// job and semaphore, which must not open a second span), then misses
/// its deadline.
TaskSystem localPcpSystem() {
  TaskSystemBuilder b(1);
  const ResourceId a = b.addResource(kHostileRes);
  const ResourceId bb = b.addResource("B");
  b.addTask({.name = kHostileTask, .period = 20, .phase = 2,
             .relative_deadline = 6, .processor = 0,
             .body = Body{}.compute(1).section(a, 2)});
  b.addTask({.name = "lo", .period = 40, .processor = 0,
             .body = Body{}.lock(a).lock(bb).compute(4).unlock(bb)
                         .compute(3).unlock(a).compute(1)});
  return std::move(b).build();
}

TEST(Perfetto, LocalPcpWakeRetryMatchesGoldenFile) {
  const TaskSystem sys = localPcpSystem();
  const Rendered r = render(ProtocolKind::kMpcp, sys, {.horizon = 30});
  // The wake-retry re-wait happened, yet only one span per episode.
  EXPECT_GT(countEvents(r.result, Ev::kLockWait),
            countOccurrences(r.json, "\"ph\":\"b\""));
  EXPECT_EQ(countOccurrences(r.json, "\"ph\":\"b\""),
            countOccurrences(r.json, "\"ph\":\"e\""));
  EXPECT_NE(r.json.find("\"cat\":\"local-cs\""), std::string::npos);
  EXPECT_NE(r.json.find("\"name\":\"deadline miss "), std::string::npos);
  EXPECT_NE(r.json.find("\\u0001"), std::string::npos);
  EXPECT_NE(r.json.find("\xcf\x84"), std::string::npos);
  expectGolden(r.json, "perfetto_local_pcp.json");
}

/// Two processors around global G. "holder" keeps G past the horizon,
/// so the hostile-named waiter's blocking span is still open there;
/// "sleeper" suspends twice, the second time past the horizon.
TEST(Perfetto, SpansOpenAtHorizonMatchGoldenFile) {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource(kHostileRes);
  b.addTask({.name = "holder", .period = 100, .processor = 0,
             .body = Body{}.compute(1).section(g, 50)});
  b.addTask({.name = kHostileTask, .period = 50, .processor = 1,
             .body = Body{}.compute(2).section(g, 1)});
  b.addTask({.name = "sleeper", .period = 100, .processor = 1,
             .body = Body{}.compute(1).suspend(5).compute(1).suspend(100)
                         .compute(1)});
  const TaskSystem sys = std::move(b).build();
  const Time horizon = 30;
  const Rendered r = render(ProtocolKind::kMpcp, sys, {.horizon = horizon});
  const std::string close_at_horizon =
      std::string(",\"ts\":").append(std::to_string(horizon));
  EXPECT_NE(r.json.find("\"ph\":\"e\",\"cat\":\"blocking\""),
            std::string::npos);
  EXPECT_EQ(countOccurrences(r.json, "\"cat\":\"suspension\""), 4u);
  EXPECT_EQ(countOccurrences(r.json, close_at_horizon + "}"), 2u)
      << "one blocking and one suspension span closed at the horizon";
  expectGolden(r.json, "perfetto_open_at_horizon.json");
}

/// DPCP runs G's critical sections on its synchronization processor P1,
/// so the P0 task gets a second thread row under P1. "other" (tid 2 on
/// P0) makes pid-major row order differ from tid-major order.
TEST(Perfetto, DpcpAgentRowMatchesGoldenFile) {
  TaskSystemBuilder b(2);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "remote", .period = 20, .processor = 0,
             .body = Body{}.compute(1).section(g, 3).compute(1)});
  b.addTask({.name = "local", .period = 25, .phase = 1, .processor = 1,
             .body = Body{}.compute(1).section(g, 2).compute(2)});
  b.addTask({.name = "other", .period = 30, .processor = 0,
             .body = Body{}.compute(2)});
  b.assignSyncProcessor(g, ProcessorId(1));
  const TaskSystem sys = std::move(b).build();
  const Rendered r = render(ProtocolKind::kDpcp, sys, {.horizon = 50});
  EXPECT_NE(r.json.find("\"pid\":1,\"tid\":0,\"name\":\"thread_name\""),
            std::string::npos);
  EXPECT_NE(r.json.find("\"ph\":\"X\",\"pid\":1,\"tid\":0,"),
            std::string::npos);
  expectGolden(r.json, "perfetto_dpcp_agent.json");
}

TEST(Perfetto, SpinFifoMatchesGoldenFile) {
  TaskSystemBuilder b(3);
  const ResourceId g = b.addResource("G");
  for (int p = 0; p < 3; ++p) {
    b.addTask({.name = std::string("t").append(std::to_string(p)),
               .period = 20 + p,
               .phase = p, .processor = p,
               .body = Body{}.compute(1).section(g, 4).compute(1)});
  }
  const TaskSystem sys = std::move(b).build();
  const Rendered r = render(ProtocolKind::kSpinFifo, sys, {.horizon = 45});
  EXPECT_GT(r.result.counters.totalContendedWaits(), 0u);
  expectGolden(r.json, "perfetto_spin_fifo.json");
}

/// Three processors around the hostile-named global: a stuck holder the
/// watchdog revokes, a gcs overrun budget-enforce kills, a WCET overrun
/// whose miss job-abort retires, and a stall window on P2 (a
/// process-scoped instant with no thread).
TEST(Perfetto, FaultInstantsMatchGoldenFile) {
  TaskSystemBuilder b(3);
  const ResourceId g = b.addResource(kHostileRes);
  b.addTask({.name = "stuck", .period = 100, .processor = 0,
             .body = Body{}.compute(1).section(g, 20).compute(1)});
  b.addTask({.name = kHostileTask, .period = 100, .processor = 1,
             .body = Body{}.compute(2).section(g, 2)});
  b.addTask({.name = "late", .period = 10, .processor = 2,
             .body = Body{}.compute(3)});
  const TaskSystem sys = std::move(b).build();
  const fault::FaultPlan plan =
      fault::parsePlan("stuck:0:0:0,cs:1:0:0:x5,wcet:2:1:x10,stall:P2:30:3",
                       sys);
  SimConfig config{.horizon = 60};
  config.fault_plan = &plan;
  config.containment.budget_enforce = true;
  config.containment.holder_watchdog = 8;
  config.containment.on_miss = fault::MissAction::kAbortJob;
  const Rendered r = render(ProtocolKind::kMpcp, sys, config);
  for (const char* name : {"\"name\":\"fault injected ",
                           "\"name\":\"forced release ",
                           "\"name\":\"budget kill ", "\"name\":\"job abort "}) {
    EXPECT_NE(r.json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(r.json.find(",\"s\":\"p\",\"name\":\"fault injected (stall)\""),
            std::string::npos);
  expectGolden(r.json, "perfetto_fault_instants.json");
}

TEST(Perfetto, ReleaseSkippedMatchesGoldenFile) {
  TaskSystemBuilder b(1);
  b.addTask({.name = kHostileTask, .period = 10, .processor = 0,
             .body = Body{}.compute(4)});
  const TaskSystem sys = std::move(b).build();
  const fault::FaultPlan plan = fault::parsePlan("wcet:0:0:x4", sys);
  SimConfig config{.horizon = 40};
  config.fault_plan = &plan;
  config.containment.on_miss = fault::MissAction::kSkipNextRelease;
  const Rendered r = render(ProtocolKind::kMpcp, sys, config);
  EXPECT_NE(r.json.find("\"name\":\"release skipped "), std::string::npos);
  expectGolden(r.json, "perfetto_release_skipped.json");
}

}  // namespace
}  // namespace mpcp
