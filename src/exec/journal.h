// CampaignJournal — the durable ledger behind resumable sweeps and fuzz
// campaigns (ISSUE 5).
//
// An append-only text file, one CRC-framed record per line:
//
//   <crc32-hex8> <kind> <key> <escaped-payload>\n
//
// where <kind> is meta|start|done|fail, <key> is the canonical run key
// (whitespace-free), and the payload is backslash-escaped so arbitrary
// bytes (CSV rows, error text) fit on one line. The CRC covers
// "<kind> <key> <escaped-payload>".
//
// Durability contract:
//   * every record is a single write(2) — CampaignJournal::write — so a
//     record either lands whole or not at all from the journal's point
//     of view: a driver killed with SIGKILL mid-write leaves at most one
//     torn line at the tail. After a write that failed part-way, the
//     next record starts with '\n', so a contained disk fault costs the
//     torn record (one corrupt line), never the record written after it;
//   * durability comes at commit points: sync() issues one fsync(2)
//     covering every record written since the previous sync. append() is
//     write + sync, the per-record durability of runCampaign and the
//     serial fuzz loop; the fleet coordinator writes freely and syncs at
//     its commit points (see exec/fabric/coordinator.h);
//   * the loader is torn-tail tolerant: a final line without a newline
//     (any truncation offset inside the last record) is dropped silently
//     and reported via JournalLoad::torn_tail;
//   * an interior line that fails its CRC or does not parse is skipped
//     and counted in JournalLoad::corrupt_lines — one bad sector never
//     poisons the rest of the campaign.
//
// Record semantics (enforced by the campaign runner, not the journal):
//   meta  — config fingerprint; resuming under different options is an
//           error, caught by comparing this record;
//   start — the run was dispatched (crash forensics: a start with no
//           done/fail means the driver died mid-run);
//   done  — the run completed; payload is its serialized result row,
//           reused verbatim on resume so aggregates are byte-identical;
//   fail  — the run failed permanently (retries exhausted); re-run on
//           resume, since the failure may have been environmental.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mpcp::exec {

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. Exposed for tests.
[[nodiscard]] std::uint32_t crc32(const std::string& bytes);

/// Escapes backslash / newline / carriage return so any payload is a
/// single journal line; unescapeLine inverts it exactly.
[[nodiscard]] std::string escapeLine(const std::string& raw);
[[nodiscard]] std::string unescapeLine(const std::string& escaped);

enum class RecordKind { kMeta, kStart, kDone, kFail };

[[nodiscard]] const char* toString(RecordKind kind);

struct JournalRecord {
  RecordKind kind = RecordKind::kStart;
  std::string key;
  std::string payload;  ///< unescaped
};

/// Result of parsing a journal. Missing file == empty journal.
struct JournalLoad {
  std::vector<JournalRecord> records;  ///< valid records, file order
  std::uint64_t corrupt_lines = 0;     ///< CRC/format failures (interior)
  bool torn_tail = false;              ///< final record was truncated
  std::string meta;                    ///< payload of the first meta record

  [[nodiscard]] bool empty() const {
    return records.empty() && corrupt_lines == 0 && !torn_tail;
  }

  /// Final state per key: payload of the last `done` record. Keys whose
  /// last record is `start` or `fail` are absent — they must be re-run.
  [[nodiscard]] std::map<std::string, std::string> completed() const;
};

[[nodiscard]] JournalLoad parseJournal(const std::string& text);
[[nodiscard]] JournalLoad loadJournalFile(const std::string& path);

/// The exact line CampaignJournal::append writes for (kind, key,
/// payload) — CRC prefix, escaped payload, trailing newline. Exposed so
/// the fleet shard merge (exec/fabric/) can rebuild a journal
/// byte-identical to a serial run. Requires a whitespace-free key.
[[nodiscard]] std::string formatRecord(RecordKind kind, const std::string& key,
                                       const std::string& payload);

/// Injectable disk seam (ISSUE 10): every byte the journal layer puts on
/// disk goes through one of these, so tests and the soak harness can
/// simulate a hostile disk — ENOSPC, short writes, failing fsync, torn
/// renames — deterministically and without filling a real filesystem.
/// The base class is the real syscalls; errors are reported errno-style
/// (negative return, errno set) so call sites keep their existing
/// strerror diagnostics.
class JournalIo {
 public:
  virtual ~JournalIo();

  [[nodiscard]] virtual int open(const std::string& path, int flags,
                                 int mode);
  [[nodiscard]] virtual long write(int fd, const void* data,
                                   std::size_t n);
  [[nodiscard]] virtual int fsync(int fd);
  [[nodiscard]] virtual int rename(const std::string& from,
                                   const std::string& to);
  virtual int close(int fd);

  /// The shared real-syscall instance.
  [[nodiscard]] static JournalIo& real();
};

/// A deterministic hostile disk. `budget_bytes` caps the total bytes it
/// will ever write (across all fds): with `short_writes`, a write that
/// crosses the cap is cut at the boundary (a torn record lands) and the
/// NEXT write fails ENOSPC; without it, the crossing write fails whole.
/// Negative budget = unlimited. fsync failures (EIO) start after
/// `fsync_failures_after` successful calls (negative = never fail), and
/// `fail_renames` makes every rename fail EIO — the torn-rename case,
/// where the tmp file exists but never replaces the target.
class FaultyJournalIo : public JournalIo {
 public:
  std::int64_t budget_bytes = -1;
  bool short_writes = false;
  int fsync_failures_after = -1;
  bool fail_renames = false;
  /// Faults apply only to paths containing this substring ("" = all) —
  /// lets a test break shard journals while the main journal stays
  /// healthy. Matched at open/rename; fds from non-matching opens pass
  /// straight through.
  std::string path_filter;

  // Observability for assertions.
  std::uint64_t writes = 0;  ///< write calls, faulted or not
  std::uint64_t fsyncs = 0;  ///< fsync calls, faulted or not
  std::int64_t bytes_written = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t fsync_errors = 0;
  std::uint64_t rename_errors = 0;

  [[nodiscard]] int open(const std::string& path, int flags,
                         int mode) override;
  [[nodiscard]] long write(int fd, const void* data, std::size_t n) override;
  [[nodiscard]] int fsync(int fd) override;
  [[nodiscard]] int rename(const std::string& from,
                           const std::string& to) override;
  int close(int fd) override;

 private:
  [[nodiscard]] bool faulted(int fd) const;
  std::vector<int> faulted_fds_;
  int fsync_calls_ = 0;
};

/// Writes `bytes` to `path` atomically: tmp sibling + write + fsync +
/// rename, all through `io`. Throws ConfigError on any step failing —
/// the target file is untouched in every failure mode (a torn rename
/// leaves only the tmp sibling behind). Used by the fleet journal merge
/// and the coordinator checkpoint.
void writeFileAtomic(const std::string& path, const std::string& bytes,
                     JournalIo* io = nullptr);

/// Append handle. Thread-safe: concurrent writers from pool workers are
/// serialized internally. A record is durable once a sync() started
/// after its write() has returned; append() returns only then, so a run
/// it completed survives any subsequent crash.
class CampaignJournal {
 public:
  /// Opens `path` for append, creating it. Throws ConfigError on failure.
  /// `io` is the disk seam (null = the real one); it must outlive the
  /// journal.
  explicit CampaignJournal(const std::string& path, JournalIo* io = nullptr);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Writes one record with a single write(2); it is not durable until
  /// the next sync(). Throws ConfigError when the disk refuses it.
  void write(RecordKind kind, const std::string& key,
             const std::string& payload);

  /// One fsync(2) covering every record written since the last
  /// successful sync; a no-op when none is pending. Throws ConfigError
  /// when fsync fails, leaving the records pending for the next sync.
  void sync();

  /// write + sync. Concurrent appends may share one fsync: a sync that
  /// finds its record already covered returns without another.
  void append(RecordKind kind, const std::string& key,
              const std::string& payload);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  JournalIo* io_ = nullptr;
  std::mutex mu_;
  bool unsynced_ = false;  ///< records written since the last sync
  bool torn_ = false;      ///< the last failed write left a fragment
};

}  // namespace mpcp::exec
