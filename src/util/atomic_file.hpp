// Atomic whole-file writes: checkpoint saves and periodic results flushes
// are read by other processes (operators, dashboards) while we rewrite
// them, and a crash mid-write must leave the previous version intact. The
// only portable way to get both is write-a-sibling-then-rename; this is
// the one implementation of that pattern.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace divscrape::util {

/// Writes `contents` to `<path>.tmp`, flushes, and renames over `path`.
/// Returns false (leaving `path` untouched) on any failure.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view contents);

/// The whole contents of `path`; nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Test seam: makes the NEXT write_file_atomic call fail after writing
/// `bytes` of the payload, leaving the torn `<path>.tmp` sibling behind —
/// exactly what a crash mid-commit leaves on disk. One-shot; subsequent
/// calls behave normally. The atomicity tests use this to prove a torn
/// state commit never corrupts the previous checkpoint.
void fail_next_atomic_write_after(std::size_t bytes);

}  // namespace divscrape::util
