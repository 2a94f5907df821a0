#include "httplog/io.hpp"

namespace divscrape::httplog {

void LogWriter::write(const LogRecord& record) {
  buf_.clear();
  formatter_.append(record, buf_);
  buf_ += '\n';
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  ++written_;
}

}  // namespace divscrape::httplog
