#include "spans.h"

#include <algorithm>
#include <chrono>
#include <charconv>
#include <cstdio>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::int32_t Tracer::open(std::string_view name, std::int64_t key,
                          std::int32_t parent) {
  if (!enabled_) return kNone;
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{intern(name), parent, key, t, t});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  if (id == kNone) return;
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int32_t Tracer::add(std::string_view name, std::int64_t key,
                         std::int32_t parent, std::int64_t start_ns,
                         std::int64_t end_ns) {
  if (!enabled_) return kNone;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{intern(name), parent, key, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::truncate(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n < spans_.size()) spans_.resize(n);
}

std::string Tracer::encode(std::size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[96];
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent < static_cast<std::int32_t>(from)
            ? -1
            : static_cast<long long>(s.parent) - static_cast<long long>(from);
    out += names_[s.name];
    std::snprintf(buf, sizeof buf, "\t%lld\t%lld\t%lld\n", parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  return out;
}

bool Tracer::decode(std::string_view text, std::int32_t parent,
                    std::int64_t key) {
  struct Row {
    std::string_view name;
    long long parent, start, end;
  };
  std::vector<Row> rows;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) return false;
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl + 1);
    Row row{};
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos || tab == 0) return false;
    row.name = line.substr(0, tab);
    line.remove_prefix(tab + 1);
    for (long long* field : {&row.parent, &row.start, &row.end}) {
      const std::size_t end = std::min(line.find('\t'), line.size());
      const auto [ptr, ec] =
          std::from_chars(line.data(), line.data() + end, *field);
      if (ec != std::errc() || ptr != line.data() + end) return false;
      line.remove_prefix(std::min(end + 1, line.size()));
    }
    if (row.parent >= static_cast<long long>(rows.size())) return false;
    rows.push_back(row);
  }
  if (!enabled_) return true;
  std::lock_guard<std::mutex> lock(mu_);
  const auto base = static_cast<long long>(spans_.size());
  for (const Row& r : rows) {
    const auto p = static_cast<std::int32_t>(r.parent < 0 ? parent
                                                          : base + r.parent);
    spans_.push_back(Span{intern(r.name), p, key, r.start, r.end});
  }
  return true;
}

std::string Tracer::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"key\":%lld,"
                  "\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", names_[s.name].c_str(),
                  (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.key), i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

SpanTotals totals(const Tracer& tracer, std::string_view name, bool prefix) {
  SpanTotals t;
  for (const Span& s : tracer.spans()) {
    const std::string& n = tracer.name(s);
    const bool match =
        prefix ? n.size() > name.size() && n.compare(0, name.size(), name) == 0 &&
                     n[name.size()] == '.'
               : n == name;
    if (!match) continue;
    ++t.count;
    t.total_ms += s.ms();
  }
  return t;
}

Coverage coverage(const Tracer& tracer, std::string_view parent) {
  Coverage c;
  c.parent = std::string(parent);
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (tracer.name(p) != parent) continue;
    ++c.parents;
    c.parent_ms += p.ms();
    std::vector<std::size_t>& kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    std::int64_t prev_end = p.start_ns;
    for (const std::size_t k : kids) {
      const Span& s = spans[k];
      if (s.start_ns < prev_end || s.end_ns > p.end_ns || s.end_ns < s.start_ns) {
        ++c.violations;
      }
      prev_end = std::max(prev_end, s.end_ns);
      c.child_ms += s.ms();
    }
  }
  return c;
}

}  // namespace perfbench
