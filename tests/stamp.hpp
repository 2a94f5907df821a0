// Test helper: stamps UA tokens the way every detection consumer does, from
// one StringInterner, so a test can hand records straight to a detector or
// to a bare ShardedPipeline (detectors take stamped records only; see
// detectors/detector.hpp).
#pragma once

#include <utility>
#include <vector>

#include "httplog/record.hpp"
#include "util/interner.hpp"

namespace divscrape::test {

/// One UA token space. Stamp every record a detector will see through the
/// same Stamper, as ReplayEngine and DetectionStage do.
class Stamper {
 public:
  httplog::LogRecord& operator()(httplog::LogRecord& record) {
    record.ua_token = ua_tokens_.intern(record.user_agent);
    return record;
  }
  /// Stamps every record of a vector or a pipeline::RecordBatch.
  template <typename Records>
  Records& all(Records& records) {
    for (auto& record : records) (*this)(record);
    return records;
  }

 private:
  util::StringInterner ua_tokens_;
};

/// `records`, stamped from one fresh token space.
inline std::vector<httplog::LogRecord> stamped(
    std::vector<httplog::LogRecord> records) {
  Stamper stamp;
  stamp.all(records);
  return records;
}

/// `record`, stamped from the process's one token space: for tests that
/// build their records one at a time.
inline httplog::LogRecord stamped(httplog::LogRecord record) {
  static Stamper stamp;
  stamp(record);
  return record;
}

}  // namespace divscrape::test
