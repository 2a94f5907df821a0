// Benchmark inputs: catalog scenarios generated by the commit under test
// (workload::WorkloadEngine), written as CLF files before any timed region,
// with a 64-bit digest of the bytes so paired runs can show they measured
// the same input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detectors/detector.hpp"

namespace perfbench {

struct GeneratedLogs {
  std::vector<std::string> paths;  ///< one per vhost, or a single file
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;        ///< FNV-1a 64 over the files, in order
  /// Cumulative byte offset of each line's end (only when requested, and
  /// only meaningful for a single-file request).
  std::vector<std::uint64_t> line_ends;
};

struct GenerateRequest {
  std::string scenario;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string dir;
  bool per_vhost = false;          ///< one file per vhost (v<i>_<name>.log)
  std::uint64_t max_records = ~0ull;
  bool keep_line_ends = false;
};

/// Generates and writes the request's logs; throws std::runtime_error on an
/// unknown scenario or an I/O failure.
[[nodiscard]] GeneratedLogs generate_logs(const GenerateRequest& request);

/// The detector pair every divscrape entry point builds with default
/// configuration: Sentinel then Arcane.
[[nodiscard]] std::vector<std::unique_ptr<divscrape::detectors::Detector>>
make_pool();

/// Size of a file in bytes, 0 when it cannot be stat'ed.
[[nodiscard]] std::uint64_t file_size(const std::string& path);

/// Process memory high-water mark: reset (Linux clear_refs) and read back
/// in MiB. Reading falls back to the lifetime peak where /proc is absent.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
