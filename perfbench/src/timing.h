// Timing wrappers around the library's public execution seams.
//
//   TimingExecutor   — an exp::RunExecutor decorator (the same seam
//                      runCampaign's RetryingExecutor wraps). It times
//                      every execute() and, when the tracer is on, ships
//                      the body's spans back from the forked child.
//   TimingJournalIo  — an exec::JournalIo subclass, passed as
//                      FleetCampaignOptions::journal_io. Every journal
//                      byte of a fleet campaign goes through it, so it
//                      sees the write/fsync cost, the canonical merge,
//                      and — because runFleetCampaign appends a `start`
//                      record from FleetConfig::on_grant and a `done`
//                      record from FleetConfig::on_result — the moment
//                      each key is granted and each result arrives.
//
// Both pass payloads, errors and return codes through unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exec/journal.h"
#include "exp/run_executor.h"
#include "spans.h"

namespace perfbench {

class TimingExecutor final : public mpcp::exp::RunExecutor {
 public:
  struct Call {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  TimingExecutor(mpcp::exp::RunExecutor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] mpcp::exp::ExecResult execute(
      const std::function<std::string()>& body) override;

  /// Every execute() so far, in call order (read after the campaign).
  [[nodiscard]] const std::vector<Call>& calls() const { return calls_; }
  /// Largest ru_maxrss a traced body reported, in MiB.
  [[nodiscard]] double childPeakRssMb() const { return child_peak_rss_mb_; }

 private:
  mpcp::exp::RunExecutor& inner_;
  Tracer& tracer_;
  std::mutex mu_;
  std::vector<Call> calls_;
  double child_peak_rss_mb_ = 0;
};

class TimingJournalIo final : public mpcp::exec::JournalIo {
 public:
  [[nodiscard]] int open(const std::string& path, int flags,
                         int mode) override;
  [[nodiscard]] long write(int fd, const void* data, std::size_t n) override;
  [[nodiscard]] int fsync(int fd) override;
  [[nodiscard]] int rename(const std::string& from,
                           const std::string& to) override;
  int close(int fd) override;

  /// Forgets everything recorded (one fleet campaign per reset).
  void reset();

  // What one campaign did, read after runFleetCampaign returns.
  std::map<std::string, std::int64_t> granted_ns;  ///< first `start` per key
  std::map<std::string, std::int64_t> done_ns;     ///< `done` per key
  std::int64_t first_grant_ns = 0;
  double write_ms = 0;
  double fsync_ms = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes = 0;
  /// The canonical merge: open of the `.tmp` sibling to its rename.
  std::int64_t merge_start_ns = 0;
  std::int64_t merge_end_ns = 0;

 private:
  void noteRecord(int fd, const char* data, std::size_t n, std::int64_t t);

  std::mutex mu_;
  std::map<int, bool> tmp_fd_;  ///< open fds; true = a merge `.tmp` file
};

}  // namespace perfbench
