#include "traffic/stream_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace divscrape::traffic {

StreamWriter::StreamWriter(std::string path, FaultPlan plan,
                           std::size_t batch_lines)
    : path_(std::move(path)),
      plan_(plan),
      rng_(plan.seed),
      batch_lines_(batch_lines) {
  open_fresh();
}

StreamWriter::~StreamWriter() {
  flush();
  if (fd_ >= 0) ::close(fd_);
}

void StreamWriter::open_fresh() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

void StreamWriter::raw_write(const char* data, std::size_t size) {
  while (size > 0 && fd_ >= 0) {
    const ssize_t n = plan_.write_fn ? plan_.write_fn(fd_, data, size)
                                     : ::write(fd_, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Disk-level failure: drop the rest, like a real logger under ENOSPC,
      // but count it so callers (and the soak harness) can account for it.
      ++write_errors_;
      last_errno_ = errno;
      dropped_bytes_ += size;
      return;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    bytes_ += static_cast<std::uint64_t>(n);
  }
}

void StreamWriter::flush() {
  if (pending_ends_.empty()) return;
  if (plan_.write_fn) {
    // A seam is installed: route every byte through it, line by line, so
    // scripted short-write/EINTR/ENOSPC faults see the same stream the
    // kernel would (one raw_write call per queued line, as the unbatched
    // mode would have issued).
    std::size_t start = 0;
    for (const std::size_t end : pending_ends_) {
      raw_write(pending_buf_.data() + start, end - start);
      start = end;
    }
  } else {
    // The pending lines are already contiguous, so the whole burst is one
    // write(2) (raw_write retries EINTR/short writes; a disk-level failure
    // drops the rest of the burst into dropped_bytes_).
    raw_write(pending_buf_.data(), pending_buf_.size());
  }
  pending_buf_.clear();
  pending_ends_.clear();
}

void StreamWriter::write_bytes(std::string_view bytes) {
  flush();  // explicit byte-level controls never reorder past queued lines
  raw_write(bytes.data(), bytes.size());
}

void StreamWriter::write_line(std::string_view line, std::string_view ending) {
  flush();
  raw_write(line.data(), line.size());
  raw_write(ending.data(), ending.size());
}

void StreamWriter::write(const httplog::LogRecord& record) {
  ++records_;
  const bool crlf = plan_.crlf_every != 0 && records_ % plan_.crlf_every == 0;
  const bool torn = plan_.tear_every != 0 && records_ % plan_.tear_every == 0;
  if (batch_lines_ > 0 && !torn) {
    // Encode straight into the contiguous pending buffer; no per-record
    // string materializes at all on the batched hot path.
    formatter_.append(record, pending_buf_);
    pending_buf_ += crlf ? "\r\n" : "\n";
    pending_ends_.push_back(pending_buf_.size());
    if (pending_ends_.size() >= batch_lines_) flush();
  } else {
    wire_.clear();
    formatter_.append(record, wire_);
    wire_ += crlf ? "\r\n" : "\n";
    if (torn && wire_.size() >= 2) {
      // Split anywhere strictly inside the line, CRLF interior included.
      const auto cut = static_cast<std::size_t>(
          rng_.uniform_int(1, static_cast<std::int64_t>(wire_.size()) - 1));
      write_bytes(std::string_view(wire_).substr(0, cut));
      write_bytes(std::string_view(wire_).substr(cut));
    } else {
      raw_write(wire_.data(), wire_.size());
    }
  }
  if (plan_.rotate_every != 0 && records_ % plan_.rotate_every == 0) {
    rotate(path_ + "." + std::to_string(++rotation_count_));
  }
  if (plan_.truncate_every != 0 && records_ % plan_.truncate_every == 0) {
    truncate_restart();
  }
}

void StreamWriter::rotate(const std::string& rotated_path) {
  flush();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::rename(path_.c_str(), rotated_path.c_str());
  open_fresh();
}

void StreamWriter::truncate_restart() {
  // Reopen with trunc on the same path: contents drop to zero length but
  // the inode is preserved, which is exactly the case the tailer must
  // distinguish from rotation.
  flush();
  open_fresh();
}

}  // namespace divscrape::traffic
