// Chunking property tests: feeding a CLF stream through the incremental
// surfaces (LineFramer, ReplayEngine::decoder().feed) in ANY chunking —
// down to 1-byte chunks, including chunks that end between '\r' and '\n' —
// must produce exactly what whole-stream processing produces: the same
// framed lines, the same lines/parsed/skipped accounting, and the same
// records in the same order. Plus the regression tests pinning the EOF
// framing contract: batch replay parses an unterminated final line,
// tail-style feeding holds it as a partial until finish_stream().
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "capture_detector.hpp"
#include "httplog/clf.hpp"
#include "httplog/framing.hpp"
#include "pipeline/replay.hpp"
#include "stats/rng.hpp"
#include "traffic/scenario.hpp"

namespace {

using namespace divscrape;

// Reference framing: what a std::getline loop yields for the content.
std::vector<std::string> getline_lines(const std::string& content) {
  std::istringstream in(content);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Feeds `content` to the framer in random chunks of [1, max_chunk] bytes
// and collects every line, flushing the trailing partial at the end
// (batch-EOF semantics, to match getline).
std::vector<std::string> framer_lines(const std::string& content,
                                      stats::Rng& rng,
                                      std::size_t max_chunk) {
  httplog::LineFramer framer;
  std::vector<std::string> lines;
  std::size_t pos = 0;
  std::string_view line;
  while (pos < content.size()) {
    const auto want = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_chunk)));
    const auto len = std::min(want, content.size() - pos);
    framer.feed(std::string_view(content).substr(pos, len));
    pos += len;
    while (framer.next(line)) lines.emplace_back(line);
  }
  if (framer.take_partial(line)) lines.emplace_back(line);
  return lines;
}

// Random printable-ish content with LF, CRLF, and empty lines, sometimes
// ending mid-line.
std::string random_content(stats::Rng& rng) {
  std::string content;
  const auto lines = rng.uniform_int(0, 40);
  for (std::int64_t i = 0; i < lines; ++i) {
    const auto len = rng.uniform_int(0, 30);
    for (std::int64_t c = 0; c < len; ++c) {
      content += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
    content += rng.bernoulli(0.3) ? "\r\n" : "\n";
  }
  if (rng.bernoulli(0.4)) content += "trailing-partial";
  return content;
}

TEST(LineFramer, MatchesGetlineUnderRandomChunking) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    stats::Rng rng(seed);
    const auto content = random_content(rng);
    const auto expected = getline_lines(content);
    for (const std::size_t max_chunk : {1u, 3u, 7u, 64u}) {
      EXPECT_EQ(framer_lines(content, rng, max_chunk), expected)
          << "seed " << seed << " max_chunk " << max_chunk;
    }
  }
}

TEST(LineFramer, HoldsPartialAcrossCrlfSplit) {
  httplog::LineFramer framer;
  std::string_view line;
  framer.feed("alpha\r");  // chunk ends between '\r' and '\n'
  EXPECT_FALSE(framer.next(line));
  EXPECT_TRUE(framer.has_partial());
  EXPECT_EQ(framer.buffered(), 6u);
  framer.feed("\nbeta");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "alpha\r");  // '\r' kept: the CLF parser strips it
  EXPECT_FALSE(framer.next(line));
  ASSERT_TRUE(framer.take_partial(line));
  EXPECT_EQ(line, "beta");
  EXPECT_FALSE(framer.has_partial());
}

TEST(LineFramer, EmptyStreamYieldsNothing) {
  httplog::LineFramer framer;
  std::string_view line;
  EXPECT_FALSE(framer.next(line));
  EXPECT_FALSE(framer.take_partial(line));
}

// The framer borrows the fed chunk, but feeding again WITHOUT draining is
// part of its contract: undrained complete lines must come back out as
// separate lines, not merged into one carry blob.
TEST(LineFramer, FeedWithoutDrainingKeepsUndrainedLinesIntact) {
  httplog::LineFramer framer;
  std::string_view line;
  framer.feed("alpha\nbravo\ncharl");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "alpha");  // "bravo\ncharl" left undrained on purpose
  framer.feed("ie\ndelta");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "bravo");
  ASSERT_TRUE(framer.next(line));
  EXPECT_EQ(line, "charlie");
  EXPECT_FALSE(framer.next(line));
  EXPECT_EQ(framer.buffered(), 5u);
  ASSERT_TRUE(framer.take_partial(line));
  EXPECT_EQ(line, "delta");
}

// --- ReplayEngine::decoder().feed vs whole-stream replay ----------------

// CLF content from the smoke scenario with corruption and mixed endings:
// every 7th line is garbage (exercises skip accounting), every 5th ends in
// CRLF.
std::string clf_content(std::size_t max_records, bool terminated) {
  auto config = traffic::smoke_test();
  config.duration_days = 0.1;
  traffic::Scenario scenario(config);
  std::string content;
  httplog::LogRecord record;
  std::size_t n = 0;
  while (n < max_records && scenario.next(record)) {
    ++n;
    if (n % 7 == 0) content += "not a clf line at all\n";
    content += httplog::format_clf(record);
    content += n % 5 == 0 ? "\r\n" : "\n";
  }
  if (!terminated && !content.empty()) content.pop_back();
  return content;
}

struct IngestResult {
  pipeline::ReplayStats stats;
  std::vector<std::string> records;
};

IngestResult ingest_whole(const std::string& content) {
  IngestResult out;
  const auto pool = divscrape_test::capture_pool(&out.records);
  pipeline::ReplayEngine engine(pool);
  std::istringstream in(content);
  out.stats = engine.replay(in);
  return out;
}

IngestResult ingest_chunked(const std::string& content, stats::Rng& rng,
                            std::size_t max_chunk) {
  IngestResult out;
  const auto pool = divscrape_test::capture_pool(&out.records);
  pipeline::ReplayEngine engine(pool);
  std::size_t pos = 0;
  while (pos < content.size()) {
    const auto want = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_chunk)));
    const auto len = std::min(want, content.size() - pos);
    (void)engine.decoder().feed(std::string_view(content).substr(pos, len));
    pos += len;
  }
  (void)engine.decoder().finish_stream();
  out.stats = engine.stats();
  return out;
}

TEST(ReplayChunking, FeedMatchesWholeStreamReplay) {
  const auto content = clf_content(400, /*terminated=*/true);
  const auto whole = ingest_whole(content);
  ASSERT_GT(whole.stats.parsed, 100u);
  ASSERT_GT(whole.stats.skipped, 10u);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    stats::Rng rng(seed);
    for (const std::size_t max_chunk : {1u, 13u, 4096u}) {
      const auto chunked = ingest_chunked(content, rng, max_chunk);
      EXPECT_EQ(chunked.stats.lines, whole.stats.lines);
      EXPECT_EQ(chunked.stats.parsed, whole.stats.parsed);
      EXPECT_EQ(chunked.stats.skipped, whole.stats.skipped);
      EXPECT_EQ(chunked.records, whole.records)
          << "seed " << seed << " max_chunk " << max_chunk;
    }
  }
}

TEST(ReplayChunking, FeedMatchesReplayOnUnterminatedTail) {
  const auto content = clf_content(150, /*terminated=*/false);
  const auto whole = ingest_whole(content);
  stats::Rng rng(99);
  const auto chunked = ingest_chunked(content, rng, 17);
  EXPECT_EQ(chunked.stats.parsed, whole.stats.parsed);
  EXPECT_EQ(chunked.records, whole.records);
}

// --- EOF framing contract (regression pin) ------------------------------
//
// A final line without a trailing newline is ambiguous: a *closed* file's
// last line is done growing (parse it), a *growing* file's last line is a
// torn write in progress (hold it). Batch replay takes the first reading,
// tail-style feeding the second; these tests pin both.

constexpr const char* kUnterminated =
    "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
    "\"-\" \"Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 "
    "Firefox/58.0\"";  // no trailing '\n'

TEST(EofFraming, BatchReplayParsesUnterminatedFinalLine) {
  std::vector<std::string> records;
  const auto pool = divscrape_test::capture_pool(&records);
  pipeline::ReplayEngine engine(pool);
  std::istringstream in(kUnterminated);
  const auto stats = engine.replay(in);
  EXPECT_EQ(stats.lines, 1u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_FALSE(engine.has_partial_line());
  ASSERT_EQ(records.size(), 1u);
}

TEST(EofFraming, TailFeedHoldsUnterminatedLineUntilFinish) {
  std::vector<std::string> records;
  const auto pool = divscrape_test::capture_pool(&records);
  pipeline::ReplayEngine engine(pool);
  EXPECT_EQ(engine.decoder().feed(kUnterminated), 0u);
  EXPECT_TRUE(engine.has_partial_line());
  EXPECT_EQ(engine.stats().lines, 0u);
  EXPECT_EQ(engine.stats().parsed, 0u);
  EXPECT_TRUE(records.empty());  // nothing ingested while the line may grow

  // The newline arriving completes the record...
  EXPECT_EQ(engine.decoder().feed("\n"), 1u);
  EXPECT_FALSE(engine.has_partial_line());
  ASSERT_EQ(records.size(), 1u);

  // ...and an explicit end-of-stream flushes a partial the same way.
  (void)engine.decoder().feed(kUnterminated);
  EXPECT_EQ(engine.decoder().finish_stream(), 1u);
  EXPECT_EQ(engine.stats().parsed, 2u);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], records[1]);
}

}  // namespace
