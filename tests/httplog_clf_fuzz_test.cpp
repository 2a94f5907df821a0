// Differential fuzz for the CLF fast path: ClfParser (SWAR splitter,
// escape fast lane, timestamp memo) must agree with parse_clf_reference()
// (the straight-line oracle, clf.hpp) on every input — same verdict, same
// error category, byte-equal records. The corpus is generated valid lines,
// hand-picked edge lines, and deterministic mutations of both (truncations,
// byte flips, inserted quotes/backslashes/brackets, binary garbage), so the
// suite is reproducible while still covering the corruption shapes rotated
// production logs exhibit. CI also runs it under ASan/UBSan — the fast
// path's pointer arithmetic gets no benefit of the doubt.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog_stream.hpp"
#include "clf_line.hpp"
#include "httplog/clf.hpp"
#include "httplog/record.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::httplog::ClfError;
using divscrape::httplog::ClfFormatter;
using divscrape::httplog::ClfParser;
using divscrape::httplog::format_clf;
using divscrape::httplog::LogRecord;
using divscrape::test::parse_clf;
using divscrape::httplog::parse_clf_reference;
using divscrape::httplog::Truth;

// Every field a parser is allowed to set (wire fields + the sidecar resets
// parse guarantees).
void expect_records_equal(const LogRecord& a, const LogRecord& b,
                          const std::string& line) {
  EXPECT_EQ(a.ip, b.ip) << line;
  EXPECT_EQ(a.ident, b.ident) << line;
  EXPECT_EQ(a.user, b.user) << line;
  EXPECT_EQ(a.time, b.time) << line;
  EXPECT_EQ(a.method, b.method) << line;
  EXPECT_EQ(a.target, b.target) << line;
  EXPECT_EQ(a.protocol, b.protocol) << line;
  EXPECT_EQ(a.status, b.status) << line;
  EXPECT_EQ(a.bytes, b.bytes) << line;
  EXPECT_EQ(a.bytes_dash, b.bytes_dash) << line;
  EXPECT_EQ(a.referer, b.referer) << line;
  EXPECT_EQ(a.user_agent, b.user_agent) << line;
  EXPECT_EQ(a.ua_token, b.ua_token) << line;
  EXPECT_EQ(a.truth, b.truth) << line;
  EXPECT_EQ(a.actor_id, b.actor_id) << line;
  EXPECT_EQ(a.actor_class, b.actor_class) << line;
  EXPECT_EQ(a.vhost, b.vhost) << line;
}

// Edges the generated corpus cannot reach: escape pathologies, boundary
// timestamps, SWAR word-boundary field widths, degenerate request lines.
std::vector<std::string> edge_lines() {
  return {
      // Escaped space inside the request line: resolves before the split.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET /a\\ b HTTP/1.1\" "
      "200 1 \"-\" \"-\"",
      // Escaped quote just before the closing quote.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"agent \\\"q\\\"\"",
      // Escaped backslash then quote.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"ref \\\\\" \"-\"",
      // Trailing backslash: the field never closes.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"agent\\",
      // Lone "-" request line (aborted TLS handshake).
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"-\" 408 - \"-\" \"-\"",
      // Request line with no protocol.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET /\" 200 1 \"-\" \"-\"",
      // Interior spaces in the target.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET /a b c HTTP/1.0\" "
      "200 1 \"-\" \"-\"",
      // Trailing junk after the closing user-agent quote (dropped).
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\" extra junk",
      // CRLF terminator.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"\r\n",
      // Leap second; non-UTC offsets (re-render as UTC).
      "1.2.3.4 - - [30/Jun/2015:23:59:60 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"",
      "1.2.3.4 - - [11/Mar/2018:08:00:00 +0200] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"",
      "1.2.3.4 - - [11/Mar/2018:06:25:24 +1400] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"",
      // Impossible date / bogus timezone (both parsers must reject).
      "1.2.3.4 - - [31/Feb/2018:06:25:24 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"",
      "1.2.3.4 - - [11/Mar/2018:06:25:24 +9959] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"-\"",
      // Literal "0" bytes vs "-" bytes.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 0 "
      "\"-\" \"-\"",
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 304 - "
      "\"-\" \"-\"",
      // ident/user tokens wider than one SWAR word (8+ bytes).
      "203.0.113.255 identtoken-wider-than-a-word some.user@example "
      "[11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 \"-\" \"-\"",
      // Unclosed bracket / missing fields at every suffix length.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000",
      "1.2.3.4 - -",
      "1.2.3.4",
      // Backslash storm in a quoted field.
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"\\\\\\\\\\\"\\\\\"",
  };
}

std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus = edge_lines();
  const auto records = divscrape::test::catalog_records("smoke");
  for (std::size_t i = 0; i < records.size() && i < 2000; ++i)
    corpus.push_back(format_clf(records[i]));
  // Deterministic mutations of the whole corpus so far. Each base line
  // yields one mutant; the RNG decides which corruption it gets.
  divscrape::stats::Rng rng(0xC1FFD1FFull);
  const std::size_t bases = corpus.size();
  for (std::size_t i = 0; i < bases; ++i) {
    std::string line = corpus[i];
    if (line.empty()) continue;
    switch (rng.uniform_int(0, 5)) {
      case 0:  // truncate anywhere
        line.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1)));
        break;
      case 1: {  // flip one byte to a printable
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(line.size()) - 1));
        line[pos] = static_cast<char>('!' + rng.uniform_int(0, 93));
        break;
      }
      case 2: {  // inject a structural byte
        const char structural[] = {'"', '\\', '[', ']', ' ', '-'};
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size())));
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos),
                    structural[rng.uniform_int(0, 5)]);
        break;
      }
      case 3: {  // delete one byte
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(line.size()) - 1));
        line.erase(pos, 1);
        break;
      }
      case 4: {  // splice the tail of another corpus line onto this one
        const auto& other = corpus[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bases) - 1))];
        line = line.substr(0, line.size() / 2) +
               other.substr(other.size() / 2);
        break;
      }
      default:  // binary garbage prefix
        line = std::string("\x01\x7f\xff ", 4) + line;
        break;
    }
    corpus.push_back(std::move(line));
  }
  return corpus;
}

TEST(ClfFuzz, FastParserMatchesReferenceOnEveryInput) {
  const auto corpus = build_corpus();
  ASSERT_GT(corpus.size(), 4000u);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& line : corpus) {
    const auto fast = parse_clf(line);
    const auto ref = parse_clf_reference(line);
    ASSERT_EQ(fast.ok(), ref.ok())
        << "verdict mismatch on: " << line
        << " fast=" << to_string(fast.error)
        << " ref=" << to_string(ref.error);
    EXPECT_EQ(fast.error, ref.error) << line;
    if (fast.ok()) {
      ++accepted;
      expect_records_equal(*fast.record, *ref.record, line);
    } else {
      ++rejected;
    }
  }
  // The corpus must actually exercise both verdicts.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 500u);
}

TEST(ClfFuzz, WarmParserMatchesStatelessParseAcrossTheCorpus) {
  // One ClfParser fed the whole corpus in order — timestamp memo and string
  // capacities maximally warm, interleaved with rejected lines that leave
  // the scratch record in an unspecified state — must still produce exactly
  // what a fresh parse_clf() produces for every line.
  const auto corpus = build_corpus();
  ClfParser warm;
  LogRecord scratch;
  for (const auto& line : corpus) {
    const ClfError warm_error = warm.parse(line, scratch);
    const auto fresh = parse_clf(line);
    ASSERT_EQ(warm_error == ClfError::kNone, fresh.ok()) << line;
    EXPECT_EQ(warm_error, fresh.error) << line;
    if (fresh.ok()) expect_records_equal(scratch, *fresh.record, line);
  }
}

TEST(ClfFuzz, WarmFormatterMatchesStatelessFormat) {
  // One ClfFormatter appending every accepted record into a reused buffer
  // (time memo warm) must emit exactly format_clf's bytes, and the emitted
  // line must parse back to the identical record (byte stability is checked
  // in the roundtrip suite; here we pin formatter statefulness).
  const auto corpus = build_corpus();
  ClfFormatter warm;
  std::string buf;
  for (const auto& line : corpus) {
    const auto parsed = parse_clf(line);
    if (!parsed.ok()) continue;
    buf.clear();
    warm.append(*parsed.record, buf);
    EXPECT_EQ(buf, format_clf(*parsed.record)) << line;
  }
}

}  // namespace
