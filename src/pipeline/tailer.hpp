// LogTailer: follows a growing CLF file the way the paper's tools followed
// live Apache access logs — poll-based (no inotify dependency), tolerant of
// the things production log files actually do:
//
//   * grow by arbitrary, torn increments (a write() can land mid-record,
//     even mid-CRLF) — handled by feeding raw bytes to a LineDecoder,
//     whose LineFramer holds partials until the newline arrives;
//   * rotate (rename + recreate): detected when the path's inode no longer
//     matches the open descriptor. The old file is drained to EOF first,
//     then ingest continues at offset 0 of the new incarnation; a partial
//     line torn across the rotation boundary is carried over in memory, so
//     the ingested byte stream equals the concatenation of the files.
//     If TWO rotations complete between polls, the middle incarnation is
//     never reachable (only the fd's file and the path's file exist for
//     us) and its bytes are lost — but the loss is *detected*: when the
//     pre-rotation partial's stitched completion fails to parse, the
//     partial's real continuation lived in a file we never saw, and
//     lost_incarnations() counts it (heuristic; see decoder.hpp);
//   * truncate-and-restart (`> access.log`): detected when the
//     descriptor's size drops below the consumed offset, OR — closing the
//     classic `tail -F` blind window — when the incarnation's first-bytes
//     signature (FNV-1a of the first up-to-64 bytes, captured on first
//     contact and extended as the file grows) no longer matches: a file
//     truncated and regrown PAST the consumed offset between polls is
//     caught by the prefix change even though the size check is blind.
//     The buffered partial (whose bytes no longer exist) is dropped and
//     ingest restarts at offset 0. Residual window: a replacement whose
//     first min(64, old size) bytes are byte-identical to the old
//     incarnation's is indistinguishable from an append;
//   * read() faults: EINTR is retried transparently; a real error stops
//     the drain and is surfaced via last_errno()/read_errors() instead of
//     being silently treated as EOF (the next poll retries).
//
// poll() is synchronous and drains everything currently available; callers
// own the wait loop (the CLI sleeps between polls, tests interleave polls
// with writer faults deterministically). checkpoint()/resume() provide the
// kill-and-continue story documented in checkpoint.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <sys/types.h>

#include "pipeline/checkpoint.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/replay.hpp"

namespace divscrape::pipeline {

struct TailConfig {
  std::size_t chunk_bytes = 64 * 1024;       ///< initial read() granularity
  std::size_t max_chunk_bytes = 1024 * 1024; ///< adaptive growth ceiling:
                                             ///< the read buffer doubles
                                             ///< whenever a read fills it
  /// Test seam: substitute for ::read so fault-injection tests can script
  /// EINTR and real errors against an ordinary file. nullptr = ::read.
  ssize_t (*read_fn)(int fd, void* buf, std::size_t count) = nullptr;
};

class LogTailer {
 public:
  using Config = TailConfig;

  /// The decoder must outlive the tailer. The file may not exist yet;
  /// poll() keeps trying to open it.
  LogTailer(std::string path, LineDecoder& decoder, Config config = Config());
  /// Convenience: attach to a ReplayEngine's internal decoder (the
  /// single-file tail mode).
  LogTailer(std::string path, ReplayEngine& engine, Config config = Config());
  ~LogTailer();

  LogTailer(const LogTailer&) = delete;
  LogTailer& operator=(const LogTailer&) = delete;

  /// Resumes from a saved checkpoint; call before the first poll(). Seeks
  /// to the committed offset when the file's inode still matches the
  /// checkpoint AND the checkpoint's prefix signature (if any) still
  /// matches the file's first bytes; otherwise (rotated/replaced/regrown
  /// while down) starts from offset 0 of the current incarnation.
  /// Cumulative accounting is adopted either way. Returns whether the
  /// offset was honored.
  bool resume(const Checkpoint& cp);

  /// Drains all bytes currently available, following rotations and
  /// truncations as described above. Returns the number of bytes consumed
  /// (0 = caught up / file absent / read error — check last_errno()).
  /// With a `budget`, stops after that many bytes (a return below it means
  /// EOF or a read error); rotation is followed only from EOF, so the next
  /// poll resumes exactly where this one stopped.
  std::size_t poll(
      std::size_t budget = std::numeric_limits<std::size_t>::max());

  /// Committed position + cumulative accounting, safe to persist. The
  /// offset excludes any buffered partial line (those bytes are re-read on
  /// resume). Caveat: while a partial line spans a rotation boundary the
  /// carried-over bytes exist only in memory; a checkpoint taken in that
  /// window resumes at offset 0 of the new file and that one torn record
  /// is lost.
  [[nodiscard]] Checkpoint checkpoint() const;

  [[nodiscard]] std::uint64_t rotations() const noexcept {
    return rotations_;
  }
  [[nodiscard]] std::uint64_t truncations() const noexcept {
    return truncations_;
  }
  /// Detected double-rotation losses (see class comment), as counted by
  /// the decoder since this tailer attached.
  [[nodiscard]] std::uint64_t lost_incarnations() const noexcept {
    return sink_->boundary_skips() - boundary_base_;
  }
  /// Non-EINTR read() failures observed (each stops one drain; the next
  /// poll retries from the same offset).
  [[nodiscard]] std::uint64_t read_errors() const noexcept {
    return read_errors_;
  }
  /// errno of the most recent read() failure; 0 after a clean drain.
  [[nodiscard]] int last_errno() const noexcept { return last_errno_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  bool open_current();      ///< (re)opens path_, captures its inode
  /// Reads the open descriptor to EOF, adding to `total`; false when the
  /// budget ran out first.
  bool drain_fd(std::size_t budget, std::size_t& total);
  /// Verifies the stored first-bytes signature against the file (false =
  /// content below the consumed offset was replaced) and extends it while
  /// the file is still shorter than the full signature window.
  bool check_signature();
  void handle_truncation();

  std::string path_;
  LineDecoder* sink_;
  Config config_;
  std::vector<char> buffer_;    ///< reusable read buffer (grows adaptively)
  int fd_ = -1;
  std::uint64_t inode_ = 0;
  std::uint64_t consumed_ = 0;  ///< bytes fed from the current incarnation
  std::uint64_t sig_len_ = 0;   ///< prefix-signature length (0 = none yet)
  std::uint64_t sig_hash_ = 0;  ///< FNV-1a of the first sig_len_ bytes
  std::uint64_t rotations_ = 0;
  std::uint64_t truncations_ = 0;
  std::uint64_t read_errors_ = 0;
  int last_errno_ = 0;
  ReplayStats sink_base_;        ///< decoder stats at construction/adoption
  std::uint64_t boundary_base_;  ///< decoder boundary_skips at attachment
  Checkpoint base_;              ///< accounting carried in via resume()
};

}  // namespace divscrape::pipeline
