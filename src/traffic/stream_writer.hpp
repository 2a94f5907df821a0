// StreamWriter: pumps generated traffic into a growing CLF file the way a
// busy Apache worker pool writes a live access log — so tests, demos and
// benches can run deployment-shaped (tail-the-file) workloads without real
// infrastructure.
//
// Beyond plain append-a-line-per-record, the writer can inject the stream
// faults a tailer must survive, either scripted via FaultPlan (every Nth
// record) or explicitly via the fault methods (tests that need exact
// control over byte boundaries):
//
//   * torn writes — a record's line lands in two flushed pieces split at an
//     arbitrary byte (including inside the CRLF terminator), simulating a
//     write() that raced the poll;
//   * CRLF line endings — some writers terminate with "\r\n";
//   * rotation — rename the live file away and recreate it (logrotate);
//   * truncate-and-restart — `> access.log` in place, same inode.
//
// ## Write modes
//
// In the default unbatched mode (`batch_lines` 0) every write reaches the
// OS immediately: the whole point is that a concurrent reader observes
// every intermediate state. With `batch_lines` > 0 lines are encoded
// straight into one contiguous pending buffer (line boundaries kept as end
// offsets for the fault seam) and flushed `batch_lines` at a time with one
// write(2) — one syscall instead of N, which is what makes the live-loop
// benches writer-bound no longer. Batching never reorders bytes: every fault
// injection and every explicit byte-level control flushes the queue first,
// so the on-disk byte sequence is identical in both modes (the *timing* of
// visibility is the only difference). flush() forces the queue out; the
// destructor flushes too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "httplog/clf.hpp"
#include "httplog/record.hpp"
#include "stats/rng.hpp"

namespace divscrape::traffic {

/// Scripted fault injection; 0 disables a fault kind.
struct StreamFaultPlan {
  std::uint64_t tear_every = 0;      ///< split every Nth record's line
  std::uint64_t crlf_every = 0;      ///< end every Nth line with "\r\n"
  std::uint64_t rotate_every = 0;    ///< rotate after every Nth record
  std::uint64_t truncate_every = 0;  ///< `> path` after every Nth record
                                     ///< (same inode, size back to 0 —
                                     ///< bytes a reader never drained are
                                     ///< gone; it must detect, not skew)
  std::uint64_t seed = 1;            ///< tear-point RNG seed

  /// Test seam mirroring LogTailer's read_fn: when set, every byte goes
  /// through this instead of ::write(2), so tests can script short writes,
  /// EINTR storms, and one-shot ENOSPC at exact byte offsets. While set,
  /// flush() writes line-by-line through the seam instead of writev(2).
  ssize_t (*write_fn)(int fd, const void* buf, std::size_t count) = nullptr;
};

class StreamWriter {
 public:
  using FaultPlan = StreamFaultPlan;

  /// Creates/truncates `path` and appends from there. `batch_lines` > 0
  /// enables vectored write batching (see the class comment).
  explicit StreamWriter(std::string path, FaultPlan plan = FaultPlan(),
                        std::size_t batch_lines = 0);
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Appends one record as a CLF line, applying any scripted faults that
  /// are due. Unbatched mode flushes to the OS immediately; batched mode
  /// queues the line (faults force the queue out first).
  void write(const httplog::LogRecord& record);

  /// Writes out the pending buffer (one write(2) burst; line-by-line when a
  /// write_fn seam is installed). No-op when the buffer is empty (always,
  /// in unbatched mode).
  void flush();

  // --- explicit fault controls (tests drive byte-exact scenarios) ---

  /// Appends raw bytes with no terminator and flushes: the first half of a
  /// torn write. Callers complete the line with another write_bytes().
  void write_bytes(std::string_view bytes);

  /// Appends one full line with the given terminator and flushes.
  void write_line(std::string_view line, std::string_view ending = "\n");

  /// logrotate: renames the live file to `rotated_path` and recreates the
  /// live path empty (new inode). Queued lines flush to the old file first.
  void rotate(const std::string& rotated_path);

  /// `> path`: truncates the live file in place (same inode); appending
  /// restarts at offset 0. Queued lines flush (and are then lost to any
  /// reader that had not drained them — exactly the real-world hazard).
  void truncate_restart();

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }
  /// Bytes actually handed to the OS (queued-but-unflushed bytes excluded).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_;
  }
  /// Non-EINTR write failures observed (each drops the rest of its burst,
  /// like a real logger under ENOSPC).
  [[nodiscard]] std::uint64_t write_errors() const noexcept {
    return write_errors_;
  }
  /// Bytes dropped by those failures.
  [[nodiscard]] std::uint64_t dropped_bytes() const noexcept {
    return dropped_bytes_;
  }
  /// errno of the most recent write failure (0 = none yet).
  [[nodiscard]] int last_errno() const noexcept { return last_errno_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void open_fresh();
  /// write(2) loop: retries EINTR and partial writes until all is out.
  void raw_write(const char* data, std::size_t size);

  std::string path_;
  FaultPlan plan_;
  stats::Rng rng_;
  int fd_ = -1;
  std::size_t batch_lines_;
  httplog::ClfFormatter formatter_;  ///< per-second time memo stays warm
  std::string wire_;        ///< scratch line for the unbatched/torn paths
  std::string pending_buf_; ///< queued encoded lines, contiguous (batched)
  std::vector<std::size_t> pending_ends_;  ///< end offset of each line
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  int last_errno_ = 0;
  std::uint64_t rotation_count_ = 0;
};

}  // namespace divscrape::traffic
