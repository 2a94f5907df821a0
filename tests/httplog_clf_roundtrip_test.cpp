// CLF round-trip fuzz-ish regression: every record the traffic simulator can
// produce must survive format_clf -> parse_clf with all wire-visible fields
// intact (time truncates to CLF's one-second resolution; truth/actor sidecar
// fields are not on the wire by design). A second pass corrupts a
// deterministic subset of lines and checks the lines/parsed/skipped
// accounting that LineDecoder and ReplayEngine report.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "catalog_stream.hpp"
#include "clf_line.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "httplog/record.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/replay.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::httplog::ClfError;
using divscrape::httplog::format_clf;
using divscrape::httplog::LogRecord;
using divscrape::test::parse_clf;
using divscrape::httplog::Truth;

constexpr std::int64_t kMicrosPerSecond = 1'000'000;

const std::vector<LogRecord>& generate_records() {
  static const std::vector<LogRecord> records =
      divscrape::test::catalog_records("smoke");
  return records;
}

TEST(ClfRoundTrip, EveryGeneratedRecordSurvivesTheWire) {
  const auto& records = generate_records();
  ASSERT_GT(records.size(), 1000u);

  for (std::size_t i = 0; i < records.size(); ++i) {
    const LogRecord& original = records[i];
    const std::string line = format_clf(original);
    const auto result = parse_clf(line);
    ASSERT_TRUE(result.ok())
        << "line " << i << " failed to re-parse (" << to_string(result.error)
        << "): " << line;
    const LogRecord& parsed = *result.record;

    EXPECT_EQ(parsed.ip, original.ip) << line;
    EXPECT_EQ(parsed.ident, original.ident) << line;
    EXPECT_EQ(parsed.user, original.user) << line;
    // CLF timestamps have one-second resolution; micros floor away.
    EXPECT_EQ(parsed.time.micros(),
              (original.time.micros() / kMicrosPerSecond) * kMicrosPerSecond)
        << line;
    EXPECT_EQ(parsed.method, original.method) << line;
    EXPECT_EQ(parsed.target, original.target) << line;
    EXPECT_EQ(parsed.protocol, original.protocol) << line;
    EXPECT_EQ(parsed.status, original.status) << line;
    EXPECT_EQ(parsed.bytes, original.bytes) << line;
    EXPECT_EQ(parsed.referer, original.referer) << line;
    EXPECT_EQ(parsed.user_agent, original.user_agent) << line;
    // Sidecar metadata never crosses the wire.
    EXPECT_EQ(parsed.truth, Truth::kUnknown) << line;
    EXPECT_EQ(parsed.actor_id, 0u) << line;
  }
}

TEST(ClfRoundTrip, SecondGenerationIsStable) {
  // format(parse(format(r))) == format(r): the codec is idempotent past the
  // first trip (all lossy truncation happens on trip one).
  const auto& records = generate_records();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < records.size(); i += 97) {
    const std::string once = format_clf(records[i]);
    const auto parsed = parse_clf(once);
    ASSERT_TRUE(parsed.ok()) << once;
    EXPECT_EQ(format_clf(*parsed.record), once);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(ClfRoundTrip, BytesZeroAndDashStayDistinctOnTheWire) {
  // Regression: format_clf used to emit "-" whenever bytes == 0, collapsing
  // a literal "0" (zero-length body, e.g. 200 with Content-Length: 0) into
  // the no-body sentinel on the first re-format. The wire distinction now
  // rides LogRecord::bytes_dash.
  const std::string zero_line =
      R"(1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 0 )"
      R"("-" "-")";
  const std::string dash_line =
      R"(1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 304 - )"
      R"("-" "-")";

  const auto zero = parse_clf(zero_line);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.record->bytes, 0u);
  EXPECT_FALSE(zero.record->bytes_dash);
  EXPECT_EQ(format_clf(*zero.record), zero_line);  // "0" survives

  const auto dash = parse_clf(dash_line);
  ASSERT_TRUE(dash.ok());
  EXPECT_EQ(dash.record->bytes, 0u);
  EXPECT_TRUE(dash.record->bytes_dash);
  EXPECT_EQ(format_clf(*dash.record), dash_line);  // "-" survives

  // Non-zero byte counts ignore the flag entirely.
  LogRecord rec = *zero.record;
  rec.bytes = 17;
  rec.bytes_dash = true;
  const auto back = parse_clf(format_clf(rec));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.record->bytes, 17u);
  EXPECT_FALSE(back.record->bytes_dash);
}

TEST(ClfRoundTrip, IdentUserDashIsTheCanonicalAbsentValue) {
  // Regression: parse kept the literal "-" while format emitted "-" only
  // for empty strings, so an empty-string record and a parsed record
  // compared unequal after one trip. Contract (clf.hpp): the wire token is
  // kept verbatim by parse, and format normalizes "" -> "-".
  const std::string line =
      R"(1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] "GET / HTTP/1.1" 200 1 )"
      R"("-" "-")";
  const auto parsed = parse_clf(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.record->ident, "-");
  EXPECT_EQ(parsed.record->user, "-");
  EXPECT_EQ(format_clf(*parsed.record), line);

  LogRecord empties = *parsed.record;
  empties.ident.clear();
  empties.user.clear();
  const auto normalized = parse_clf(format_clf(empties));
  ASSERT_TRUE(normalized.ok());
  EXPECT_EQ(normalized.record->ident, "-");
  EXPECT_EQ(normalized.record->user, "-");
  // One trip reaches the fixed point: the re-parsed record re-formats to
  // the identical line.
  EXPECT_EQ(format_clf(*normalized.record), format_clf(empties));
}

TEST(ClfRoundTrip, FormatAfterParseIsByteStable) {
  // format(parse(line)) == line for every accepted generated line — the
  // strong form of the round-trip contract (clf.hpp). The generated corpus
  // exercises "-" bytes, quoted escapes, and query strings.
  const auto& records = generate_records();
  for (std::size_t i = 0; i < records.size(); i += 13) {
    const std::string line = format_clf(records[i]);
    const auto parsed = parse_clf(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(format_clf(*parsed.record), line);
  }
}

TEST(ClfRoundTrip, ReplayAccountingTracksCorruptedLines) {
  // Corrupt a deterministic ~5% of serialized lines in ways rotated
  // production logs actually exhibit, then check the accounting identity
  // lines == parsed + skipped at both the LineDecoder and ReplayEngine
  // layers.
  const auto& records = generate_records();
  divscrape::stats::Rng rng(0xD15C0FEEDull);

  std::ostringstream out;
  std::uint64_t corrupted = 0;
  for (const auto& record : records) {
    std::string line = format_clf(record);
    if (rng.bernoulli(0.05)) {
      ++corrupted;
      switch (rng.uniform_int(0, 3)) {
        case 0:  // truncated mid-line (log rotation tear)
          line = line.substr(0, line.size() / 2);
          break;
        case 1:  // mangled IP field
          line = "999.999.999.999" + line.substr(line.find(' '));
          break;
        case 2:  // binary garbage
          line = "\x01\x02\x7f garbage";
          break;
        default:  // empty line
          line.clear();
          break;
      }
    }
    out << line << '\n';
  }
  ASSERT_GT(corrupted, 0u);

  std::uint64_t parsed = 0;
  divscrape::pipeline::LineDecoder decoder(
      [&parsed](divscrape::pipeline::RecordBatch&& batch) {
        parsed += batch.size();
      },
      1024);
  std::istringstream decoder_in(out.str());
  decoder.feed_stream(decoder_in);
  EXPECT_EQ(decoder.stats().lines, records.size());
  EXPECT_EQ(decoder.stats().skipped, corrupted);
  EXPECT_EQ(decoder.stats().parsed, parsed);
  EXPECT_EQ(parsed + decoder.stats().skipped, decoder.stats().lines);

  const auto pool = divscrape::detectors::make_paper_pair();
  divscrape::pipeline::ReplayEngine engine(pool);
  std::istringstream replay_in(out.str());
  const auto stats = engine.replay(replay_in);
  EXPECT_EQ(stats.lines, records.size());
  EXPECT_EQ(stats.parsed, parsed);
  EXPECT_EQ(stats.skipped, corrupted);
  EXPECT_EQ(stats.parsed + stats.skipped, stats.lines);
  EXPECT_EQ(engine.results().total_requests(), stats.parsed);
}

}  // namespace
