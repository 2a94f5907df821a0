#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace divscrape::util {

namespace {
// -1 = no injected fault; >= 0 = fail the next call after this many bytes.
long long g_fail_after = -1;
}  // namespace

void fail_next_atomic_write_after(std::size_t bytes) {
  g_fail_after = static_cast<long long>(bytes);
}

bool write_file_atomic(const std::string& path, std::string_view contents) {
  const long long fail_after = g_fail_after;
  g_fail_after = -1;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (fail_after >= 0 &&
      static_cast<std::size_t>(fail_after) < contents.size()) {
    // Injected crash: write the torn prefix, then fail before the rename —
    // the on-disk picture a real mid-commit crash leaves behind.
    std::size_t left = static_cast<std::size_t>(fail_after);
    const char* p = contents.data();
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) break;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    ::close(fd);
    return false;
  }
  const char* p = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: journaled filesystems may commit the rename ahead
  // of the data blocks, and a truncated checkpoint after power loss is the
  // exact failure this function exists to prevent.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return false;
  }
  if (::close(fd) != 0) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::string text;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      text.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      ::close(fd);
      if (n < 0) return std::nullopt;
      return text;
    }
  }
}

}  // namespace divscrape::util
