// Process-memory readings for the soak's RSS gate and bench telemetry.
//
// peak RSS (getrusage ru_maxrss) is the lifetime high-water mark: the soak
// gate and the benches read it once at the end, so no phase can peak
// unseen between samples. It cannot show mid-run growth or a later shrink;
// for that, current RSS is /proc/self/statm on Linux (resident pages times
// the page size), falling back to the lifetime peak elsewhere.
#pragma once

#include <cstdint>
#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

namespace divscrape::util {

/// Lifetime peak resident set size in KiB (ru_maxrss; bytes on macOS).
inline std::int64_t peak_rss_kb() noexcept {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;
#else
  return usage.ru_maxrss;
#endif
}

/// Current resident set size in KiB, sampled from /proc/self/statm.
/// Falls back to peak_rss_kb() where /proc is unavailable.
inline std::int64_t current_rss_kb() noexcept {
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    long total_pages = 0, resident_pages = 0;
    const int n = std::fscanf(statm, "%ld %ld", &total_pages, &resident_pages);
    std::fclose(statm);
    if (n == 2 && resident_pages >= 0) {
      const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
      return static_cast<std::int64_t>(resident_pages) *
             (page_kb > 0 ? page_kb : 4);
    }
  }
  return peak_rss_kb();
}

}  // namespace divscrape::util
