// Structured alert logging: the operational output of a deployment.
// Alerts are written as JSON Lines (one object per alerted request, keys
// detector, ip, time, time_us, target, status, score, reason) so SOC
// tooling can tail, filter and aggregate them. The format is write-only
// here: there is no in-repo reader, and the tests and CI read the lines
// back with a general JSON parser (core::parse_json; python3 in CI).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "detectors/detector.hpp"
#include "httplog/record.hpp"

namespace divscrape::pipeline {

/// Writes alerts as JSONL.
class AlertLogWriter {
 public:
  explicit AlertLogWriter(std::ostream& os) : os_(&os) {}

  /// Emits one line if the verdict is an alert; no-op otherwise.
  /// Returns whether a line was written.
  bool write(std::string_view detector, const httplog::LogRecord& record,
             const detectors::Verdict& verdict);

  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

 private:
  std::ostream* os_;
  std::string line_;  ///< each event is formatted here, then written once
  std::uint64_t written_ = 0;
};

}  // namespace divscrape::pipeline
