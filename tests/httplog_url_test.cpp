// Request-target parsing and path-taxonomy tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "catalog_stream.hpp"
#include "httplog/url.hpp"
#include "util/state.hpp"

namespace {

using divscrape::httplog::is_static_asset;
using divscrape::httplog::parse_query;
using divscrape::httplog::path_extension;
using divscrape::httplog::query_value;
using divscrape::httplog::url_decode;

/// The template of `path` built into a fresh string.
std::string path_template(std::string_view path) {
  std::string out;
  divscrape::httplog::build_path_template(path, out);
  return out;
}

TEST(UrlDecode, BasicEscapes) {
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("%41%42%43"), "ABC");
  EXPECT_EQ(url_decode("100%25"), "100%");
}

TEST(UrlDecode, InvalidEscapesPassThrough) {
  EXPECT_EQ(url_decode("%zz"), "%zz");
  EXPECT_EQ(url_decode("%2"), "%2");
  EXPECT_EQ(url_decode("%"), "%");
}

TEST(Query, ParsesPairs) {
  const auto params = parse_query("from=NCE&to=LHR&flag&empty=");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].key, "from");
  EXPECT_EQ(params[0].value, "NCE");
  EXPECT_EQ(params[2].key, "flag");
  EXPECT_EQ(params[2].value, "");
  EXPECT_EQ(params[3].key, "empty");
}

TEST(Query, ValueLookup) {
  EXPECT_EQ(query_value("a=1&b=2", "b").value_or("?"), "2");
  EXPECT_FALSE(query_value("a=1", "c").has_value());
  EXPECT_EQ(query_value("q=a%20b", "q").value_or("?"), "a b");
}

TEST(PathSegments, SkipsEmpties) {
  // Empty segments never reach a template.
  EXPECT_EQ(path_template("/a/b/c"), "/a/b/c");
  EXPECT_EQ(path_template("/a//b/"), "/a/b");
  EXPECT_EQ(path_template("/"), "/");
}

TEST(PathExtension, Lowercased) {
  EXPECT_EQ(path_extension("/static/app.JS"), "js");
  EXPECT_EQ(path_extension("/static/app.min.js"), "js");
  EXPECT_EQ(path_extension("/offers/123"), "");
  EXPECT_EQ(path_extension("/.hidden"), "");
  EXPECT_EQ(path_extension("/x."), "");
}

struct AssetCase {
  const char* path;
  bool asset;
};

// Names each case by its path so the test name is stable across runs
// (the default printer would dump the struct's bytes, pointer included).
void PrintTo(const AssetCase& c, std::ostream* os) { *os << c.path; }

class AssetTest : public ::testing::TestWithParam<AssetCase> {};

TEST_P(AssetTest, Classification) {
  EXPECT_EQ(is_static_asset(GetParam().path), GetParam().asset)
      << GetParam().path;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, AssetTest,
    ::testing::Values(AssetCase{"/static/app-1.js", true},
                      AssetCase{"/static/theme.css", true},
                      AssetCase{"/img/logo.png", true},
                      AssetCase{"/fonts/x.woff2", true},
                      AssetCase{"/offers/123", false},
                      AssetCase{"/search", false},
                      AssetCase{"/robots.txt", false},
                      AssetCase{"/data.json", false}));

TEST(PathTemplate, CollapsesNumericSegments) {
  EXPECT_EQ(path_template("/offers/123"), "/offers/{n}");
  EXPECT_EQ(path_template("/offers/987654"), "/offers/{n}");
  EXPECT_EQ(path_template("/book/1/step/2"), "/book/{n}/step/{n}");
  EXPECT_EQ(path_template("/search"), "/search");
  EXPECT_EQ(path_template("/"), "/");
}

TEST(PathTemplate, SweepCollapsesToOneTemplate) {
  // The scraper-detection property: a catalogue sweep has one template.
  const auto t1 = path_template("/offers/1");
  for (int id = 2; id < 100; ++id) {
    EXPECT_EQ(path_template("/offers/" + std::to_string(id)), t1);
  }
}

TEST(PathTemplateTokenizer, RepeatPathsAreMemoized) {
  divscrape::httplog::PathTemplateTokenizer tokenizer;
  const auto a = tokenizer.token("/book/7/step/2");
  EXPECT_EQ(tokenizer.token("/book/7/step/2"), a);
  EXPECT_EQ(tokenizer.templates(), 1u);
  // Tokens rise in first-seen order: the order Session sums entropy in.
  EXPECT_LT(a, tokenizer.token("/about"));
}

TEST(PathTemplateTokenizer, SweepSharesOneTemplateToken) {
  divscrape::httplog::PathTemplateTokenizer tokenizer;
  const auto tok = tokenizer.token("/offers/1");
  for (int id = 2; id < 100; ++id) {
    EXPECT_EQ(tokenizer.token("/offers/" + std::to_string(id)), tok);
  }
  EXPECT_NE(tokenizer.token("/search"), tok);
  EXPECT_EQ(tokenizer.token("/offers/7"), tok);
  EXPECT_EQ(tokenizer.templates(), 2u);  // templates only, never paths
}

TEST(PathTemplateTokenizer, CapBoundsGrowthButKeepsKnownTemplatesExact) {
  using divscrape::httplog::PathTemplateTokenizer;
  // Cap of 3 templates: "/offers/{n}", "/a", "/b" fill it.
  PathTemplateTokenizer tokenizer(3);
  const auto offers = tokenizer.token("/offers/1");
  (void)tokenizer.token("/a");
  (void)tokenizer.token("/b");
  EXPECT_EQ(tokenizer.templates(), 3u);

  // Past the cap: a fresh sweep path still resolves to the exact, already
  // interned template token (no growth, no hash degradation).
  EXPECT_EQ(tokenizer.token("/offers/99999"), offers);
  EXPECT_EQ(tokenizer.templates(), 3u);

  // A template never seen before the cap degrades to a stable hash token
  // flagged with the overflow bit (never aliasing an exact token), both
  // from the one-entry memo and when rebuilt after another path.
  const auto overflow = tokenizer.token("/unseen/path");
  EXPECT_TRUE(overflow & PathTemplateTokenizer::kOverflowTokenBit);
  EXPECT_EQ(tokenizer.token("/unseen/path"), overflow);
  (void)tokenizer.token("/a");
  EXPECT_EQ(tokenizer.token("/unseen/path"), overflow);
  EXPECT_EQ(tokenizer.templates(), 3u);
}

TEST(PathTemplateTokenizer, StateRoundTripKeepsTokens) {
  using divscrape::httplog::PathTemplateTokenizer;
  PathTemplateTokenizer a;
  const auto offers = a.token("/offers/1");
  const auto search = a.token("/search");
  divscrape::util::StateWriter w;
  a.save_state(w);
  const std::string blob = w.take();

  PathTemplateTokenizer b;
  divscrape::util::StateReader r(blob);
  ASSERT_TRUE(b.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(b.token("/search"), search);
  EXPECT_EQ(b.token("/offers/42"), offers);
  divscrape::util::StateWriter again;
  b.save_state(again);
  EXPECT_EQ(again.take(), blob);
}

/// '/'-separated non-empty segments of a path ("/a/b/" -> {"a","b"}).
std::vector<std::string> path_segments(std::string_view path) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (start < path.size()) {
    const auto slash = path.find('/', start);
    const auto len =
        slash == std::string_view::npos ? path.size() - start : slash - start;
    if (len > 0) segments.emplace_back(path.substr(start, len));
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return segments;
}

/// The segment-vector implementation the template had before the buffer
/// builder: the differential oracle for build_path_template().
std::string reference_template(std::string_view path) {
  std::string out = "/";
  for (const auto& seg : path_segments(path)) {
    const bool numeric =
        std::all_of(seg.begin(), seg.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    out += numeric ? std::string("{n}") : seg;
    out += '/';
  }
  if (out.size() > 1) out.pop_back();
  return out;
}

/// Checks the builder against the oracle, into a fresh string and into one
/// buffer reused (dirty) across every path.
void expect_builder_matches_reference(const std::vector<std::string>& paths) {
  std::string reused = "stale contents from an earlier, longer template";
  for (const auto& path : paths) {
    const std::string expected = reference_template(path);
    EXPECT_EQ(path_template(path), expected) << path;
    divscrape::httplog::build_path_template(path, reused);
    EXPECT_EQ(reused, expected) << path;
  }
}

TEST(PathTemplateBuilder, MatchesReferenceOnUrlCorpus) {
  expect_builder_matches_reference(
      {"/offers/123", "/offers/987654", "/book/1/step/2", "/search", "/",
       "", "//", "/a//b/", "/a/b/c", "/static/app-1.js", "/static/theme.css",
       "/img/logo.png", "/fonts/x.woff2", "/robots.txt", "/data.json",
       "/offers/12a", "/1/2/3/", "///7///", "/-1/+2/0x10", "/v1/items/0",
       "noslash/42", "/x/\xd9\xa3/9"});
}

TEST(PathTemplateBuilder, MatchesReferenceOnMegasiteSample) {
  const auto records =
      divscrape::test::catalog_records("megasite", 0.002);
  ASSERT_GT(records.size(), 1000u);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < records.size(); i += 7)
    paths.emplace_back(records[i].path());
  expect_builder_matches_reference(paths);
}

}  // namespace
