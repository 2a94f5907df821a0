// Test helper: parses one CLF line with a fresh httplog::ClfParser into the
// result shape httplog::parse_clf_reference() returns, so a test can check
// one line, or compare the production parser with the oracle, in one call.
#pragma once

#include <string_view>

#include "httplog/clf.hpp"

namespace divscrape::test {

inline httplog::ClfParseResult parse_clf(std::string_view line) {
  httplog::ClfParser parser;
  httplog::ClfParseResult result;
  result.record.emplace();
  result.error = parser.parse(line, *result.record);
  if (result.error != httplog::ClfError::kNone) result.record.reset();
  return result;
}

}  // namespace divscrape::test
