// Structured alert logging: the operational output of a deployment.
// Alerts are written as JSON Lines (one object per alerted request) so
// SOC tooling can tail, filter and aggregate them; a reader parses the
// format back for the round-trip tests and offline analysis.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "detectors/detector.hpp"
#include "httplog/record.hpp"

namespace divscrape::pipeline {

/// One emitted alert.
struct AlertEvent {
  std::string detector;
  httplog::Ipv4 ip;
  httplog::Timestamp time;
  std::string target;
  int status = 0;
  double score = 0.0;
  std::string reason;
};

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
  std::uint64_t written_ = 0;
};

/// Parses the JSONL alert log back. The parser handles exactly the subset
/// of JSON the writer produces (flat objects, string/number members) and
/// skips malformed lines, mirroring the CLF decoder's tolerance.
class AlertLogReader {
 public:
  explicit AlertLogReader(std::istream& in) : in_(&in) {}

  [[nodiscard]] bool next(AlertEvent& out);

  [[nodiscard]] std::uint64_t lines_read() const noexcept { return lines_; }
  [[nodiscard]] std::uint64_t lines_skipped() const noexcept {
    return skipped_;
  }

 private:
  std::istream* in_;
  std::string line_;
  std::uint64_t lines_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Parses one alert-log line (exposed for tests).
[[nodiscard]] std::optional<AlertEvent> parse_alert_line(
    std::string_view line);

}  // namespace divscrape::pipeline
