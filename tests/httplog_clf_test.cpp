// Combined-log-format codec tests: golden lines, error taxonomy, the
// format→parse round-trip property over randomly generated records, and
// whole-log decoding through the pipeline's LineDecoder.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "httplog/clf.hpp"
#include "httplog/io.hpp"
#include "pipeline/decoder.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::httplog::ClfError;
using divscrape::httplog::format_clf;
using divscrape::httplog::HttpMethod;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::parse_clf;
using divscrape::httplog::Timestamp;

TEST(Clf, ParsesCanonicalLine) {
  const auto result = parse_clf(
      R"x(203.0.113.7 - frank [11/Mar/2018:06:25:24 +0000] )x"
      R"x("GET /search?from=NCE&to=LHR HTTP/1.1" 200 5120 )x"
      R"x("https://shop.example.com/" "Mozilla/5.0 (X11; Linux x86_64)")x");
  ASSERT_TRUE(result.ok()) << to_string(result.error);
  const auto& r = *result.record;
  EXPECT_EQ(r.ip, Ipv4(203, 0, 113, 7));
  EXPECT_EQ(r.user, "frank");
  EXPECT_EQ(r.time, Timestamp::from_civil(2018, 3, 11, 6, 25, 24));
  EXPECT_EQ(r.method, HttpMethod::kGet);
  EXPECT_EQ(r.target, "/search?from=NCE&to=LHR");
  EXPECT_EQ(r.protocol, "HTTP/1.1");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.bytes, 5120u);
  EXPECT_EQ(r.referer, "https://shop.example.com/");
  EXPECT_EQ(r.user_agent, "Mozilla/5.0 (X11; Linux x86_64)");
  EXPECT_EQ(r.path(), "/search");
  EXPECT_EQ(r.query(), "from=NCE&to=LHR");
}

TEST(Clf, DashBytesMeansZero) {
  const auto result = parse_clf(
      R"(1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 304 - )"
      R"("-" "-")");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.record->bytes, 0u);
  EXPECT_EQ(result.record->status, 304);
}

TEST(Clf, EscapedQuotesInsideFields) {
  const auto result = parse_clf(
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 10 "
      "\"-\" \"agent \\\"quoted\\\" here\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.record->user_agent, "agent \"quoted\" here");
}

TEST(Clf, TrailingNewlineTolerated) {
  EXPECT_TRUE(parse_clf("1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] "
                        "\"GET / HTTP/1.1\" 200 1 \"-\" \"-\"\r\n")
                  .ok());
}

struct ErrorCase {
  const char* name;
  const char* line;
  ClfError error;
};

// Names each case by its label so the test name is stable across runs
// (the default printer would dump the struct's bytes, pointer included).
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ClfErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ClfErrorTest, Categorized) {
  const auto result = parse_clf(GetParam().line);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, GetParam().error) << GetParam().line;
}

INSTANTIATE_TEST_SUITE_P(
    Categories, ClfErrorTest,
    ::testing::Values(
        ErrorCase{"empty_line", "", ClfError::kEmptyLine},
        ErrorCase{"ip_out_of_range",
                  "999.1.1.1 - - [11/Mar/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" 200 1 \"-\" \"-\"",
                  ClfError::kBadIp},
        ErrorCase{"timestamp_unbracketed",
                  "1.2.3.4 - - 11/Mar/2018:00:00:00 \"GET / HTTP/1.1\" 200 "
                  "1 \"-\" \"-\"",
                  ClfError::kBadTimestamp},
        ErrorCase{"timestamp_bad_month",
                  "1.2.3.4 - - [11/Xxx/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" 200 1 \"-\" \"-\"",
                  ClfError::kBadTimestamp},
        ErrorCase{"request_unquoted",
                  "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] GET / 200 1 "
                  "\"-\" \"-\"",
                  ClfError::kBadRequestLine},
        ErrorCase{"status_out_of_range",
                  "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" 999 1 \"-\" \"-\"",
                  ClfError::kBadStatus},
        ErrorCase{"status_not_numeric",
                  "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" abc 1 \"-\" \"-\"",
                  ClfError::kBadStatus},
        ErrorCase{"bytes_not_numeric",
                  "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" 200 12x \"-\" \"-\"",
                  ClfError::kBadBytes},
        ErrorCase{"truncated",
                  "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / "
                  "HTTP/1.1\" 200 1 \"-\"",
                  ClfError::kTruncated}));

LogRecord random_record(divscrape::stats::Rng& rng) {
  LogRecord r;
  r.ip = Ipv4(static_cast<std::uint32_t>(rng()));
  r.time = Timestamp::from_civil(
      2018, 3, static_cast<int>(rng.uniform_int(11, 18)),
      static_cast<int>(rng.uniform_int(0, 23)),
      static_cast<int>(rng.uniform_int(0, 59)),
      static_cast<int>(rng.uniform_int(0, 59)));
  const HttpMethod methods[] = {HttpMethod::kGet, HttpMethod::kPost,
                                HttpMethod::kHead};
  r.method = methods[rng.uniform_int(0, 2)];
  r.target = "/offers/" + std::to_string(rng.uniform_int(1, 99'999));
  if (rng.bernoulli(0.5)) r.target += "?q=a+b%20c";
  r.status = rng.bernoulli(0.8) ? 200 : 404;
  r.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  r.referer = rng.bernoulli(0.5) ? "-" : "https://ref.example/\"x\"";
  r.user_agent = rng.bernoulli(0.5)
                     ? "Mozilla/5.0 (weird \\ escapes \" everywhere)"
                     : "curl/7.58.0";
  return r;
}

TEST(Clf, FormatParseRoundTripProperty) {
  divscrape::stats::Rng rng(20180311);
  for (int i = 0; i < 2000; ++i) {
    const LogRecord original = random_record(rng);
    const auto result = parse_clf(format_clf(original));
    ASSERT_TRUE(result.ok()) << format_clf(original);
    const auto& r = *result.record;
    EXPECT_EQ(r.ip, original.ip);
    EXPECT_EQ(r.time, original.time);
    EXPECT_EQ(r.method, original.method);
    EXPECT_EQ(r.target, original.target);
    EXPECT_EQ(r.status, original.status);
    EXPECT_EQ(r.bytes, original.bytes);
    EXPECT_EQ(r.referer, original.referer);
    EXPECT_EQ(r.user_agent, original.user_agent);
  }
}

/// Every record LineDecoder parses from `text`, plus its accounting.
std::vector<LogRecord> decode_all(const std::string& text,
                                  divscrape::pipeline::ReplayStats* stats) {
  std::vector<LogRecord> records;
  divscrape::pipeline::LineDecoder decoder(
      [&records](divscrape::pipeline::RecordBatch&& batch) {
        for (auto& r : batch) records.push_back(std::move(r));
      },
      16);
  std::istringstream in(text);
  decoder.feed_stream(in);
  if (stats != nullptr) *stats = decoder.stats();
  return records;
}

TEST(LineDecoder, SkipsBadLinesAndCounts) {
  divscrape::pipeline::ReplayStats stats;
  const auto records = decode_all(
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET /a HTTP/1.1\" 200 1 "
      "\"-\" \"-\"\n"
      "this is garbage\n"
      "\n"
      "5.6.7.8 - - [11/Mar/2018:00:00:01 +0000] \"GET /b HTTP/1.1\" 200 2 "
      "\"-\" \"-\"\n",
      &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].target, "/a");
  EXPECT_EQ(records[1].target, "/b");
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.parsed, 2u);
  EXPECT_EQ(stats.skipped, 2u);
}

TEST(LogWriter, RoundTripThroughStream) {
  divscrape::stats::Rng rng(7);
  std::vector<LogRecord> originals;
  std::ostringstream out;
  divscrape::httplog::LogWriter writer(out);
  for (int i = 0; i < 50; ++i) {
    originals.push_back(random_record(rng));
    writer.write(originals.back());
  }
  EXPECT_EQ(writer.lines_written(), 50u);
  const auto parsed = decode_all(out.str(), nullptr);
  ASSERT_EQ(parsed.size(), 50u);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].target, originals[i].target);
    EXPECT_EQ(parsed[i].time, originals[i].time);
  }
}

}  // namespace
