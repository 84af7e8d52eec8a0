#include "trace/perfetto.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mpcp {

namespace {

/// Appends `s` to `out` as the body of a JSON string literal.
void appendEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
}

/// Builds the event list in one fixed-size buffer and hands it to the
/// stream a full chunk at a time, so no event costs a stream operation
/// or a heap allocation.
class JsonBuffer {
 public:
  explicit JsonBuffer(std::ostream& os)
      : os_(os), buf_(kChunk, '\0'), cur_(buf_.data()) {}

  /// Appends literal text outside any event.
  void raw(std::string_view s) { put(s); }

  /// Appends one event object whose body is the concatenation of
  /// `parts` (text, already JSON-escaped where needed, and integers).
  template <typename... Parts>
  void event(const Parts&... parts) {
    put(first_ ? std::string_view("\n    {") : std::string_view(",\n    {"));
    first_ = false;
    (put(parts), ...);
    put("}");
  }

  void flush() {
    os_.write(buf_.data(), cur_ - buf_.data());
    cur_ = buf_.data();
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  static constexpr std::size_t kMaxDigits = 20;  ///< any 64-bit integer

  [[nodiscard]] std::size_t room() const {
    return static_cast<std::size_t>(buf_.data() + kChunk - cur_);
  }

  void put(std::string_view s) {
    if (s.size() > room()) {
      flush();
      if (s.size() > kChunk) {  // a name longer than the buffer
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    cur_ = std::copy(s.begin(), s.end(), cur_);
  }
  template <std::size_t N>
  void put(const char (&s)[N]) {
    put(std::string_view(s, N - 1));
  }
  template <std::integral T>
  void put(T v) {
    if (room() < kMaxDigits) flush();
    cur_ = std::to_chars(cur_, buf_.data() + kChunk, v).ptr;
  }

  std::ostream& os_;
  std::string buf_;
  char* cur_;
  bool first_ = true;
};

/// An async span opened by a kLockWait / kSelfSuspend event and closed
/// by its matching grant/resume (or the horizon). Chrome matches the
/// "b"/"e" pair on (cat, id, pid), so those are pinned at open time.
struct OpenSpan {
  JobId job;
  ResourceId resource;  ///< invalid for suspension spans
  int id = 0;
  int pid = 0;
  int tid = 0;
};

/// The label of a fault/containment instant; null for other kinds.
const char* instantName(Ev k) {
  switch (k) {
    case Ev::kFaultInjected: return "fault injected";
    case Ev::kForcedRelease: return "forced release";
    case Ev::kBudgetKill: return "budget kill";
    case Ev::kJobAbort: return "job abort";
    case Ev::kReleaseSkipped: return "release skipped";
    default: return nullptr;
  }
}

}  // namespace

void writePerfettoTrace(std::ostream& os, const TaskSystem& system,
                        const SimResult& result) {
  const int procs = system.processorCount();
  const auto tasks = static_cast<int>(system.tasks().size());

  // Every name JSON-escaped once per call. A job's name is its task's
  // plus "#<instance>", which needs no escaping; a resource's keeps the
  // space every label puts before it (" S0").
  std::vector<std::string> task_names;
  task_names.reserve(system.tasks().size());
  for (const Task& t : system.tasks()) {
    appendEscaped(task_names.emplace_back(), t.name);
  }
  std::vector<std::string> resource_names;
  resource_names.reserve(system.resources().size());
  for (const ResourceInfo& r : system.resources()) {
    appendEscaped(resource_names.emplace_back(" "), r.name);
  }
  const auto taskName = [&](TaskId t) -> std::string_view {
    return task_names[static_cast<std::size_t>(t.value())];
  };
  const auto resourceName = [&](ResourceId r) -> std::string_view {
    return r.valid() ? resource_names[static_cast<std::size_t>(r.value())]
                     : std::string_view();
  };

  // Home processor fallback for events whose processor field is unset
  // (e.g. a deadline miss recorded at the horizon).
  const auto pidOf = [&](const TraceEvent& e) {
    return e.processor.valid()
               ? e.processor.value()
               : system.task(e.job.task).processor.value();
  };

  // Pass 1: every (processor, task) pair that appears, so each gets a
  // thread_name metadata record (a task can show up on several
  // processors under DPCP). A processors x tasks bitmap, walked
  // row-major, lists the pairs in (pid, tid) order.
  const auto row = [&](int pid, int tid) {
    return static_cast<std::size_t>(pid) * static_cast<std::size_t>(tasks) +
           static_cast<std::size_t>(tid);
  };
  std::vector<bool> threads(row(procs, 0));
  const auto markThread = [&](int pid, TaskId task) {
    threads[row(pid, task.value())] = true;
  };
  for (const ExecSegment& s : result.segments) {
    markThread(s.processor.value(), s.job.task);
  }
  for (const TraceEvent& e : result.trace) {
    // Fault/containment instants carry a job except for processor
    // stalls, which are process-scoped (no thread row needed).
    if (e.kind == Ev::kLockWait || e.kind == Ev::kSelfSuspend ||
        e.kind == Ev::kDeadlineMiss ||
        (instantName(e.kind) != nullptr && e.job.task.valid())) {
      markThread(pidOf(e), e.job.task);
    }
  }

  JsonBuffer w(os);
  w.raw("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");

  for (int p = 0; p < procs; ++p) {
    w.event("\"ph\":\"M\",\"pid\":", p,
            ",\"name\":\"process_name\",\"args\":{\"name\":\"P", p, "\"}");
    w.event("\"ph\":\"M\",\"pid\":", p,
            ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":", p,
            "}");
  }
  for (int pid = 0; pid < procs; ++pid) {
    for (int tid = 0; tid < tasks; ++tid) {
      if (!threads[row(pid, tid)]) continue;
      w.event("\"ph\":\"M\",\"pid\":", pid, ",\"tid\":", tid,
              ",\"name\":\"thread_name\",\"args\":{\"name\":\"",
              taskName(TaskId(tid)), "\"}");
    }
  }

  // Execution segments as complete events, one per contiguous run.
  for (const ExecSegment& s : result.segments) {
    w.event("\"ph\":\"X\",\"pid\":", s.processor.value(),
            ",\"tid\":", s.job.task.value(), ",\"ts\":", s.begin,
            ",\"dur\":", s.end - s.begin, ",\"cat\":\"", toString(s.mode),
            "\",\"name\":\"", taskName(s.job.task), "#", s.job.instance,
            "\"");
  }

  // Async spans for blocking and suspension, in trace order.
  int next_id = 1;
  std::vector<OpenSpan> open_blocking;
  std::vector<OpenSpan> open_susp;

  const auto findOpen = [](std::vector<OpenSpan>& v, JobId job,
                           ResourceId r) -> std::vector<OpenSpan>::iterator {
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->job == job && it->resource == r) return it;
    }
    return v.end();
  };
  const auto emitBegin = [&](const OpenSpan& sp, Time t, const char* cat,
                             const char* name, std::string_view resource) {
    w.event("\"ph\":\"b\",\"cat\":\"", cat, "\",\"id\":", sp.id,
            ",\"pid\":", sp.pid, ",\"tid\":", sp.tid, ",\"ts\":", t,
            ",\"name\":\"", name, resource, "\"");
  };
  const auto emitEnd = [&](const OpenSpan& sp, Time t, const char* cat) {
    w.event("\"ph\":\"e\",\"cat\":\"", cat, "\",\"id\":", sp.id,
            ",\"pid\":", sp.pid, ",\"tid\":", sp.tid, ",\"ts\":", t);
  };

  for (const TraceEvent& e : result.trace) {
    switch (e.kind) {
      case Ev::kLockWait: {
        // A PCP wake-retry that loses again re-emits kLockWait while the
        // original span is still open; keep the one span per episode.
        if (findOpen(open_blocking, e.job, e.resource) !=
            open_blocking.end()) {
          break;
        }
        OpenSpan sp{e.job, e.resource, next_id++, pidOf(e),
                    e.job.task.value()};
        emitBegin(sp, e.t, "blocking", "wait", resourceName(e.resource));
        open_blocking.push_back(sp);
        break;
      }
      case Ev::kLockGrant: {
        auto it = findOpen(open_blocking, e.job, e.resource);
        if (it != open_blocking.end()) {
          emitEnd(*it, e.t, "blocking");
          open_blocking.erase(it);
        }
        break;
      }
      case Ev::kSelfSuspend: {
        OpenSpan sp{e.job, ResourceId{}, next_id++, pidOf(e),
                    e.job.task.value()};
        emitBegin(sp, e.t, "suspension", "suspended", {});
        open_susp.push_back(sp);
        break;
      }
      case Ev::kSelfResume: {
        auto it = findOpen(open_susp, e.job, ResourceId{});
        if (it != open_susp.end()) {
          emitEnd(*it, e.t, "suspension");
          open_susp.erase(it);
        }
        break;
      }
      case Ev::kDeadlineMiss: {
        w.event("\"ph\":\"i\",\"pid\":", pidOf(e),
                ",\"tid\":", e.job.task.value(), ",\"ts\":", e.t,
                ",\"s\":\"t\",\"name\":\"deadline miss ",
                taskName(e.job.task), "#", e.job.instance, "\"");
        break;
      }
      default: {
        // Fault/containment instants: "<kind>[ <resource>]", then the
        // job, or " (stall)" for a processor stall window, which has no
        // job: process scope.
        const char* name = instantName(e.kind);
        if (name == nullptr) break;
        if (!e.job.task.valid()) {
          w.event("\"ph\":\"i\",\"pid\":",
                  e.processor.valid() ? e.processor.value() : 0,
                  ",\"ts\":", e.t, ",\"s\":\"p\",\"name\":\"", name,
                  resourceName(e.resource), " (stall)\"");
          break;
        }
        w.event("\"ph\":\"i\",\"pid\":", pidOf(e),
                ",\"tid\":", e.job.task.value(), ",\"ts\":", e.t,
                ",\"s\":\"t\",\"name\":\"", name, resourceName(e.resource),
                " ", taskName(e.job.task), "#", e.job.instance, "\"");
        break;
      }
    }
  }

  // Anything still blocked/suspended at the horizon: close there so the
  // viewer renders a bounded span instead of dropping the event.
  for (const OpenSpan& sp : open_blocking) {
    emitEnd(sp, result.horizon, "blocking");
  }
  for (const OpenSpan& sp : open_susp) {
    emitEnd(sp, result.horizon, "suspension");
  }

  w.raw("\n  ]\n}\n");
  w.flush();
}

}  // namespace mpcp
