// Streaming log file output: write records as CLF lines. Reading goes
// through pipeline::LineDecoder, the one place a log line is framed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "httplog/clf.hpp"
#include "httplog/record.hpp"

namespace divscrape::httplog {

/// Writes records as CLF lines.
class LogWriter {
 public:
  explicit LogWriter(std::ostream& out) : out_(&out) {}

  void write(const LogRecord& record);
  [[nodiscard]] std::uint64_t lines_written() const noexcept {
    return written_;
  }

 private:
  std::ostream* out_;
  ClfFormatter formatter_;
  std::string buf_;  ///< reused wire buffer
  std::uint64_t written_ = 0;
};

}  // namespace divscrape::httplog
