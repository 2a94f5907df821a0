#include "pipeline/alert_log.hpp"

#include "core/json.hpp"
#include "httplog/ip.hpp"
#include "httplog/timestamp.hpp"

namespace divscrape::pipeline {

bool AlertLogWriter::write(std::string_view detector,
                           const httplog::LogRecord& record,
                           const detectors::Verdict& verdict) {
  if (!verdict.alert) return false;
  line_.clear();
  core::JsonWriter json(line_);
  json.begin_object();
  json.key("detector").value(detector);
  json.key("ip").value(record.ip.to_string());
  json.key("time").value(record.time.to_iso8601());
  json.key("time_us").value(record.time.micros());
  json.key("target").value(record.target);
  json.key("status").value(record.status);
  json.key("score").value(verdict.score);
  json.key("reason").value(to_string(verdict.reason));
  json.end_object();
  line_ += '\n';
  os_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++written_;
  return true;
}

}  // namespace divscrape::pipeline
