#include "timing.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace perfbench {

namespace {

// Separates a traced body's payload from the span report appended to it
// in the child. A record separator cannot occur in a CSV row.
constexpr std::string_view kSpanMarker = "\x1eperfbench-spans\n";

bool endsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

mpcp::exp::ExecResult TimingExecutor::execute(
    const std::function<std::string()>& body) {
  std::int64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    key = static_cast<std::int64_t>(calls_.size());
    calls_.push_back(Call{});
  }
  const std::int64_t start = nowNs();
  mpcp::exp::ExecResult r;
  if (!tracer_.enabled()) {
    r = inner_.execute(body);
  } else {
    // Runs where the inner executor runs the body (a forked child under
    // SubprocessExecutor): time it there and append the child's spans.
    r = inner_.execute([this, &body] {
      const std::size_t mark = tracer_.size();
      const std::int64_t t0 = nowNs();
      std::string payload = body();
      const std::int64_t t1 = nowNs();
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      const std::string spans = tracer_.encode(mark);
      tracer_.truncate(mark);
      char header[96];
      std::snprintf(header, sizeof header, "%lld %lld %ld\n",
                    static_cast<long long>(t0), static_cast<long long>(t1),
                    ru.ru_maxrss);
      payload += kSpanMarker;
      payload += header;
      payload += spans;
      return payload;
    });
  }
  const std::int64_t end = nowNs();

  if (tracer_.enabled() && r.ok) {
    const std::size_t at = r.payload.rfind(kSpanMarker);
    long long t0 = 0;
    long long t1 = 0;
    long maxrss_kb = 0;
    if (at != std::string::npos) {
      const std::string report = r.payload.substr(at + kSpanMarker.size());
      r.payload.resize(at);
      const std::size_t nl = report.find('\n');
      if (nl != std::string::npos &&
          std::sscanf(report.c_str(), "%lld %lld %ld", &t0, &t1,
                      &maxrss_kb) == 3) {
        const std::int32_t exec_id =
            tracer_.add("exec.execute", key, Tracer::kNone, start, end);
        tracer_.add("exec.spawn", key, exec_id, start, t0);
        const std::int32_t body_id =
            tracer_.add("exec.body", key, exec_id, t0, t1);
        tracer_.decode(std::string_view(report).substr(nl + 1), body_id, key);
        tracer_.add("exec.reap", key, exec_id, t1, end);
        std::lock_guard<std::mutex> lock(mu_);
        child_peak_rss_mb_ =
            std::max(child_peak_rss_mb_, static_cast<double>(maxrss_kb) / 1024);
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  calls_[static_cast<std::size_t>(key)] = Call{start, end};
  return r;
}

int TimingJournalIo::open(const std::string& path, int flags, int mode) {
  const std::int64_t t = nowNs();
  const int fd = JournalIo::open(path, flags, mode);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd >= 0) {
    const bool tmp = endsWith(path, ".tmp");
    tmp_fd_[fd] = tmp;
    if (tmp) merge_start_ns = t;
  }
  return fd;
}

long TimingJournalIo::write(int fd, const void* data, std::size_t n) {
  const std::int64_t t0 = nowNs();
  const long w = JournalIo::write(fd, data, n);
  const std::int64_t t1 = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  write_ms += static_cast<double>(t1 - t0) / 1e6;
  if (w > 0) bytes += static_cast<std::uint64_t>(w);
  noteRecord(fd, static_cast<const char*>(data), n, t0);
  return w;
}

int TimingJournalIo::fsync(int fd) {
  const std::int64_t t0 = nowNs();
  const int rc = JournalIo::fsync(fd);
  const std::int64_t t1 = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  fsync_ms += static_cast<double>(t1 - t0) / 1e6;
  ++fsyncs;
  return rc;
}

int TimingJournalIo::rename(const std::string& from, const std::string& to) {
  const int rc = JournalIo::rename(from, to);
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (endsWith(from, ".tmp")) merge_end_ns = t;
  return rc;
}

int TimingJournalIo::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tmp_fd_.erase(fd);
  }
  return JournalIo::close(fd);
}

void TimingJournalIo::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  granted_ns.clear();
  done_ns.clear();
  first_grant_ns = 0;
  write_ms = fsync_ms = 0;
  fsyncs = bytes = 0;
  merge_start_ns = merge_end_ns = 0;
}

// A journal record is "<crc32-hex8> <kind> <key>[ <payload>]\n", one per
// write (CampaignJournal::append). The merge's single big write goes to
// a `.tmp` file and is skipped.
void TimingJournalIo::noteRecord(int fd, const char* data, std::size_t n,
                                 std::int64_t t) {
  const auto it = tmp_fd_.find(fd);
  if (it == tmp_fd_.end() || it->second || n < 10 || data[8] != ' ') return;
  const std::string_view line(data + 9, n - 9);
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return;
  const std::string_view kind = line.substr(0, sp);
  std::string_view key = line.substr(sp + 1);
  key = key.substr(0, std::min(key.find(' '), key.find('\n')));
  if (kind == "start") {
    if (granted_ns.emplace(std::string(key), t).second && first_grant_ns == 0) {
      first_grant_ns = t;
    }
  } else if (kind == "done") {
    done_ns.emplace(std::string(key), t);
  }
}

}  // namespace perfbench
