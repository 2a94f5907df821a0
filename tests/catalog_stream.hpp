// Test helper: materializes a workload — a catalog entry, or a spec a test
// edited first — through the WorkloadEngine (default EngineConfig) into a
// vector, for suites that need the whole stream in hand.
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "httplog/record.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace divscrape::test {

/// The named catalog spec; the name must exist.
inline workload::ScenarioSpec catalog_spec(std::string_view name,
                                           double scale = 1.0) {
  return *workload::catalog_entry(name, scale);
}

inline std::vector<httplog::LogRecord> records_of(workload::ScenarioSpec spec) {
  workload::WorkloadEngine engine(std::move(spec));
  std::vector<httplog::LogRecord> out;
  (void)engine.run(
      [&out](httplog::LogRecord&& record) { out.push_back(std::move(record)); });
  return out;
}

inline std::vector<httplog::LogRecord> catalog_records(std::string_view name,
                                                       double scale = 1.0) {
  return records_of(catalog_spec(name, scale));
}

}  // namespace divscrape::test
