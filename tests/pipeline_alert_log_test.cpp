// JSONL alert-log tests: every line the writer emits is one JSON object
// that a general parser (core::parse_json) reads back to the record.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/json_parse.hpp"
#include "pipeline/alert_log.hpp"

namespace {

using divscrape::core::JsonValue;
using divscrape::core::parse_json;
using divscrape::detectors::AlertReason;
using divscrape::detectors::Verdict;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;
using divscrape::pipeline::AlertLogWriter;

LogRecord sample_record() {
  LogRecord r;
  r.ip = Ipv4(45, 140, 0, 17);
  r.time = Timestamp::from_civil(2018, 3, 12, 10, 30, 0);
  r.target = "/offers/123?x=\"quoted\"";
  r.status = 200;
  return r;
}

/// Parses one written line (newline included) and checks that it carries
/// exactly the writer's eight keys.
JsonValue parse_line(const std::string& line) {
  EXPECT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  std::string error;
  auto doc = parse_json(line, &error);
  EXPECT_TRUE(doc.has_value()) << error << ": " << line;
  if (!doc) return {};
  EXPECT_TRUE(doc->is_object());
  for (const char* key : {"detector", "ip", "time", "time_us", "target",
                          "status", "score", "reason"}) {
    EXPECT_NE(doc->find(key), nullptr) << key;
  }
  return std::move(*doc);
}

TEST(AlertLog, NonAlertsAreSkipped) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  EXPECT_FALSE(writer.write("sentinel", sample_record(),
                            {false, 0.3, AlertReason::kNone}));
  EXPECT_EQ(writer.written(), 0u);
  EXPECT_TRUE(os.str().empty());
}

TEST(AlertLog, WriteParseRoundTrip) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  const auto record = sample_record();
  ASSERT_TRUE(writer.write("sentinel", record,
                           {true, 0.95, AlertReason::kIpReputation}));
  const JsonValue event = parse_line(os.str());
  EXPECT_EQ(event.string_or("detector", ""), "sentinel");
  EXPECT_EQ(event.string_or("ip", ""), record.ip.to_string());
  EXPECT_EQ(event.string_or("time", ""), "2018-03-12T10:30:00Z");
  EXPECT_EQ(event.int_or("time_us", 0), record.time.micros());
  EXPECT_EQ(event.string_or("target", ""), record.target);
  EXPECT_EQ(event.int_or("status", 0), 200);
  EXPECT_NEAR(event.number_or("score", 0.0), 0.95, 1e-9);
  EXPECT_EQ(event.string_or("reason", ""), "ip-reputation");
}

// A target holding a quote, a backslash and control bytes (which a log
// line can carry, percent-decoding aside) must parse back exactly: the
// writer emits \", \\ and \u0001, and a reader that unescapes only some
// of them corrupts the target.
TEST(AlertLog, EscapedTargetParsesBackExactly) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  auto record = sample_record();
  record.target = std::string("/a\"b\\c\x01" "d\x1f\te", 11);
  ASSERT_TRUE(writer.write("arcane", record,
                           {true, 1.0, AlertReason::kBehavioral}));
  EXPECT_NE(os.str().find("\\u0001"), std::string::npos) << os.str();
  const JsonValue event = parse_line(os.str());
  EXPECT_EQ(event.string_or("target", ""), record.target);
}

TEST(AlertLog, ReaderStreamsManyEvents) {
  std::ostringstream os;
  AlertLogWriter writer(os);
  for (int i = 0; i < 25; ++i) {
    auto record = sample_record();
    record.time = record.time + i * 1'000'000;
    record.status = i % 2 == 0 ? 200 : 302;
    writer.write(i % 2 == 0 ? "sentinel" : "arcane", record,
                 {true, 1.0, AlertReason::kRateLimit});
  }
  EXPECT_EQ(writer.written(), 25u);
  std::istringstream in(os.str());
  std::string line;
  int count = 0;
  int sentinel_events = 0;
  while (std::getline(in, line)) {
    const JsonValue event = parse_line(line + '\n');
    EXPECT_EQ(event.int_or("time_us", 0),
              (sample_record().time + count * 1'000'000).micros());
    EXPECT_EQ(event.int_or("status", 0), count % 2 == 0 ? 200 : 302);
    sentinel_events += event.string_or("detector", "") == "sentinel";
    ++count;
  }
  EXPECT_EQ(count, 25);
  EXPECT_EQ(sentinel_events, 13);
}

}  // namespace
