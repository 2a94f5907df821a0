#include "pipeline/tailer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>

#include "util/hash.hpp"

namespace divscrape::pipeline {

namespace {
/// Signature window: the first up-to-64 bytes of an incarnation — less
/// than one CLF line, captured before the first drain so truncate-regrow
/// is detectable from the very first poll that saw the file.
constexpr std::size_t kSigBytes = 64;
}  // namespace

LogTailer::LogTailer(std::string path, LineDecoder& decoder, Config config)
    : path_(std::move(path)),
      sink_(&decoder),
      config_(config),
      sink_base_(decoder.stats()),
      boundary_base_(decoder.boundary_skips()) {}

LogTailer::LogTailer(std::string path, ReplayEngine& engine, Config config)
    : LogTailer(std::move(path), engine.decoder(), config) {}

LogTailer::~LogTailer() {
  if (fd_ >= 0) ::close(fd_);
}

bool LogTailer::open_current() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  inode_ = static_cast<std::uint64_t>(st.st_ino);
  consumed_ = 0;
  sig_len_ = 0;
  sig_hash_ = 0;
  return true;
}

bool LogTailer::check_signature() {
  char buf[kSigBytes];
  const ssize_t m = ::pread(fd_, buf, sizeof buf, 0);
  if (m < 0) return true;  // cannot tell; never false-positive a truncation
  const auto have = static_cast<std::uint64_t>(m);
  if (have < sig_len_) return false;  // shrank below the signed prefix
  if (sig_len_ > 0 &&
      util::fnv1a64(std::string_view(buf, sig_len_)) != sig_hash_)
    return false;
  if (have > sig_len_) {
    // File grew while the signature was still short of the full window:
    // extend it (the verified old prefix is a prefix of the new one).
    sig_len_ = have;
    sig_hash_ = util::fnv1a64(std::string_view(buf, have));
  }
  return true;
}

void LogTailer::handle_truncation() {
  // The bytes behind the buffered partial line no longer exist.
  sink_->drop_partial_line();
  consumed_ = 0;
  sig_len_ = 0;
  sig_hash_ = 0;
  ++truncations_;
}

bool LogTailer::resume(const Checkpoint& cp) {
  base_ = cp;
  base_.offset = 0;  // position is tracked live, not via the baseline
  base_.inode = 0;
  base_.sig_len = 0;
  base_.sig_hash = 0;
  if (!open_current()) return false;
  if (cp.inode == 0 || cp.inode != inode_) return false;
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return false;
  if (static_cast<std::uint64_t>(st.st_size) < cp.offset) {
    // Truncated below the committed offset while we were down: the bytes
    // the offset referred to are gone, restart this incarnation.
    ++truncations_;
    return false;
  }
  if (cp.sig_len > 0) {
    sig_len_ = cp.sig_len;
    sig_hash_ = cp.sig_hash;
    if (!check_signature()) {
      // Same inode, big enough, different content: truncated and regrown
      // (or recreated onto a recycled inode) while we were down.
      sig_len_ = 0;
      sig_hash_ = 0;
      ++truncations_;
      return false;
    }
  }
  if (::lseek(fd_, static_cast<off_t>(cp.offset), SEEK_SET) < 0) return false;
  consumed_ = cp.offset;
  return true;
}

bool LogTailer::drain_fd(std::size_t budget, std::size_t& total) {
  if (buffer_.size() < config_.chunk_bytes) buffer_.resize(config_.chunk_bytes);
  const auto read_fn = config_.read_fn ? config_.read_fn : +[](
      int fd, void* buf, std::size_t count) {
    return ::read(fd, buf, count);
  };
  for (;;) {
    if (total >= budget) return false;
    const std::size_t want = std::min(buffer_.size(), budget - total);
    const ssize_t n = read_fn(fd_, buffer_.data(), want);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted, not EOF: just retry
      // Real error: stop this drain and surface it; the file offset is
      // unchanged, so the next poll retries from the same position.
      last_errno_ = errno;
      ++read_errors_;
      return true;
    }
    if (n == 0) {
      last_errno_ = 0;
      return true;
    }
    sink_->feed(
        std::string_view(buffer_.data(), static_cast<std::size_t>(n)));
    consumed_ += static_cast<std::uint64_t>(n);
    total += static_cast<std::size_t>(n);
    if (static_cast<std::size_t>(n) == buffer_.size() &&
        buffer_.size() < config_.max_chunk_bytes &&
        budget - total > buffer_.size()) {
      // The file is outrunning us: double the read size (fewer syscalls
      // and framer hand-offs per drained megabyte). Not past what the
      // budget could still fill: a budgeted poll reads the same bytes
      // either way, and a larger buffer would only be touched memory.
      buffer_.resize(std::min(buffer_.size() * 2, config_.max_chunk_bytes));
    }
  }
}

std::size_t LogTailer::poll(std::size_t budget) {
  std::size_t total = 0;
  for (;;) {
    if (fd_ < 0 && !open_current()) return total;  // not created yet

    // Truncate-and-restart detection BEFORE draining: either the open
    // incarnation shrank below what we already consumed (`> access.log`,
    // caught by size), or it was truncated AND regrown past the consumed
    // offset between polls — invisible to the size check, caught by the
    // first-bytes signature no longer matching. Either way the buffered
    // partial line's bytes no longer exist: drop it and restart at 0.
    struct stat fd_st {};
    if (::fstat(fd_, &fd_st) == 0) {
      const bool shrank =
          static_cast<std::uint64_t>(fd_st.st_size) < consumed_;
      if (shrank || !check_signature()) {
        handle_truncation();
        if (::lseek(fd_, 0, SEEK_SET) < 0) return total;
        // Sign the restarted incarnation BEFORE draining it, or a second
        // truncate-and-regrow before the next poll would go unseen (the
        // window this signature exists to close).
        (void)check_signature();
      }
    }

    if (!drain_fd(budget, total)) return total;

    // Rotation: the path now names a different inode (rename + recreate).
    // Drain the renamed-away descriptor once more before switching — a
    // writer that had not yet reopened its log keeps appending to the old
    // inode after our drain above — then carry any torn partial line
    // across to the new incarnation in the framer, flagging the boundary
    // so a bogus stitch (double-rotation loss) is detected downstream.
    struct stat path_st {};
    if (::stat(path_.c_str(), &path_st) != 0) return total;  // renamed away
    if (static_cast<std::uint64_t>(path_st.st_ino) == inode_) return total;
    if (!drain_fd(budget, total)) return total;
    if (sink_->partial_bytes() > 0) sink_->mark_incarnation_boundary();
    if (!open_current()) return total;
    ++rotations_;
  }
}

Checkpoint LogTailer::checkpoint() const {
  Checkpoint cp = base_;
  cp.inode = inode_;
  cp.sig_len = sig_len_;
  cp.sig_hash = sig_hash_;
  const auto partial = static_cast<std::uint64_t>(sink_->partial_bytes());
  // A partial spanning a rotation boundary can exceed the bytes consumed
  // from the current file; clamp (see header caveat).
  cp.offset = consumed_ > partial ? consumed_ - partial : 0;
  const ReplayStats& now = sink_->stats();
  cp.lines += now.lines - sink_base_.lines;
  cp.parsed += now.parsed - sink_base_.parsed;
  cp.skipped += now.skipped - sink_base_.skipped;
  cp.rotations += rotations_;
  cp.truncations += truncations_;
  cp.lost_incarnations += lost_incarnations();
  return cp;
}

}  // namespace divscrape::pipeline
