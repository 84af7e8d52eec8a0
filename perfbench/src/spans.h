// In-memory span recorder for the traced run.
//
// A span is a named [start, end) interval on the steady clock, the key
// it belongs to, and the span that caused it (its parent). Spans are
// recorded from the benchmark's own code around each call into a
// library layer; nothing inside the library is instrumented. They stay
// in memory while the workload runs and are written out at the end.
//
// A disabled recorder (the untraced run) records nothing: open() returns
// kNone and every other call is a no-op.
//
// Spans recorded in a forked child (the --isolate executor) travel back
// to the parent as text: encode() the child's spans, decode() them into
// the parent's recorder under a new parent span. CLOCK_MONOTONIC is
// system-wide, so child and parent timestamps share one time base.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady (monotonic) clock.
[[nodiscard]] std::int64_t nowNs();

struct Span {
  std::uint32_t name = 0;    ///< index into Tracer::names()
  std::int32_t parent = -1;  ///< index of the causing span, -1 = root
  std::int64_t key = -1;     ///< key index within its batch, -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double ms() const { return (end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  static constexpr std::int32_t kNone = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts a span now; close() ends it. kNone when disabled.
  std::int32_t open(std::string_view name, std::int64_t key,
                    std::int32_t parent = kNone);
  void close(std::int32_t id);
  /// Records a finished span.
  std::int32_t add(std::string_view name, std::int64_t key,
                   std::int32_t parent, std::int64_t start_ns,
                   std::int64_t end_ns);

  [[nodiscard]] std::size_t size() const;
  /// Drops every span from index `n` on (undo after encode()).
  void truncate(std::size_t n);

  /// Spans [from, size()) as text; parents are made relative to `from`.
  [[nodiscard]] std::string encode(std::size_t from) const;
  /// Inverse of encode(): appends the spans, re-rooting encoded roots
  /// under `parent` and tagging every span with `key`. False on
  /// malformed text (nothing is appended then).
  bool decode(std::string_view text, std::int32_t parent, std::int64_t key);

  // Read access once recording has finished (not thread-safe against
  // concurrent open/close).
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& name(const Span& s) const {
    return names_[s.name];
  }

  /// Chrome trace-event JSON, loadable in ui.perfetto.dev.
  [[nodiscard]] std::string toJson() const;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  mutable std::mutex mu_;  // pool threads record while main waits
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// RAII span; inert on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::int64_t key,
        std::int32_t parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer.open(name, key, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Aggregates over a finished recording.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0;
  [[nodiscard]] double meanMs() const {
    return count == 0 ? 0 : total_ms / static_cast<double>(count);
  }
};

/// Totals for every span whose name equals `name`, or starts with
/// `name` followed by '.' when `prefix` is set.
[[nodiscard]] SpanTotals totals(const Tracer& tracer, std::string_view name,
                                bool prefix = false);

/// Self-check of one parent/child relation: over every span named
/// `parent`, the share of its time covered by its direct children, and
/// how many children lie outside their parent or overlap a sibling (a
/// timer that started after, or ended before, the work it names).
struct Coverage {
  std::string parent;
  std::size_t parents = 0;
  double parent_ms = 0;
  double child_ms = 0;
  std::size_t violations = 0;
  [[nodiscard]] double share() const {
    return parent_ms <= 0 ? 0 : child_ms / parent_ms;
  }
};
[[nodiscard]] Coverage coverage(const Tracer& tracer, std::string_view parent);

}  // namespace perfbench
