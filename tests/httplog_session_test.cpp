// Sessionization tests: keying, timeouts, aggregate features, conservation.
#include <gtest/gtest.h>

#include <vector>

#include "httplog/session.hpp"

namespace {

using divscrape::httplog::HttpMethod;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Session;
using divscrape::httplog::SessionKey;
using divscrape::httplog::sessionize;
using divscrape::httplog::Sessionizer;
using divscrape::httplog::Timestamp;
using divscrape::httplog::Truth;

LogRecord make(Ipv4 ip, double t_s, const char* target = "/offers/1",
               int status = 200, const char* ua = "UA") {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.target = target;
  r.status = status;
  r.user_agent = ua;
  return r;
}

TEST(Sessionizer, GroupsByIpAndUa) {
  std::vector<LogRecord> records = {
      make(Ipv4(1, 1, 1, 1), 0.0), make(Ipv4(1, 1, 1, 1), 1.0),
      make(Ipv4(2, 2, 2, 2), 2.0),
      make(Ipv4(1, 1, 1, 1), 3.0, "/x", 200, "OtherUA")};
  const auto sessions = sessionize(records);
  EXPECT_EQ(sessions.size(), 3u);
}

TEST(Sessionizer, IdleTimeoutSplitsSessions) {
  std::vector<LogRecord> records = {make(Ipv4(1, 1, 1, 1), 0.0),
                                    make(Ipv4(1, 1, 1, 1), 100.0),
                                    make(Ipv4(1, 1, 1, 1), 5000.0)};
  const auto sessions = sessionize(records, 1800.0);
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(Sessionizer, ConservationOfRecords) {
  // Property: total requests across sessions equals records fed in.
  std::vector<LogRecord> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back(make(Ipv4(1, 1, 1, static_cast<std::uint8_t>(i % 7)),
                           i * 13.0));
  }
  const auto sessions = sessionize(records);
  std::uint64_t total = 0;
  for (const auto& s : sessions) total += s.request_count();
  EXPECT_EQ(total, records.size());
}

TEST(Sessionizer, SinkReceivesCompletedSessionsInStream) {
  std::size_t completed = 0;
  Sessionizer sessionizer(10.0,
                          [&completed](Session&&) { ++completed; });
  sessionizer.add(make(Ipv4(1, 1, 1, 1), 0.0));
  sessionizer.add(make(Ipv4(1, 1, 1, 1), 100.0));  // gap > timeout
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(sessionizer.open_sessions(), 1u);
  sessionizer.flush_all();
  EXPECT_EQ(completed, 2u);
  EXPECT_EQ(sessionizer.open_sessions(), 0u);
}

TEST(Session, FeatureAggregates) {
  SessionKey key{Ipv4(9, 9, 9, 9), 1};
  Session s(key, Timestamp(0));
  s.add(make(key.ip, 0.0, "/offers/1", 200));
  s.add(make(key.ip, 10.0, "/offers/2", 200));
  s.add(make(key.ip, 20.0, "/static/app-1.js", 200));
  s.add(make(key.ip, 30.0, "/offers/3", 404));

  EXPECT_EQ(s.request_count(), 4u);
  EXPECT_DOUBLE_EQ(s.duration_s(), 30.0);
  EXPECT_NEAR(s.request_rate(), 4.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.asset_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(s.error_ratio(), 0.25);
  EXPECT_EQ(s.distinct_paths(), 4u);
  EXPECT_EQ(s.status_counts().count(200), 3u);
  EXPECT_EQ(s.status_counts().count(404), 1u);
  // Templates: /offers/{n} and /static/app-1.js -> entropy > 0 but low.
  EXPECT_GT(s.template_entropy(), 0.0);
  EXPECT_LT(s.template_entropy(), 1.0);
  // Interarrival: three gaps of 10s.
  EXPECT_EQ(s.interarrival().count(), 3u);
  EXPECT_DOUBLE_EQ(s.interarrival().mean(), 10.0);
}

TEST(Session, RefererAndHeadRatios) {
  SessionKey key{Ipv4(9, 9, 9, 9), 1};
  Session s(key, Timestamp(0));
  auto r1 = make(key.ip, 0.0);
  r1.referer = "https://x/";
  s.add(r1);
  auto r2 = make(key.ip, 1.0);
  r2.method = HttpMethod::kHead;
  s.add(r2);
  EXPECT_DOUBLE_EQ(s.referer_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(s.head_ratio(), 0.5);
}

TEST(Session, RobotsFetchSticky) {
  SessionKey key{Ipv4(9, 9, 9, 9), 1};
  Session s(key, Timestamp(0));
  EXPECT_FALSE(s.fetched_robots());
  s.add(make(key.ip, 0.0, "/robots.txt"));
  s.add(make(key.ip, 1.0, "/offers/1"));
  EXPECT_TRUE(s.fetched_robots());
}

TEST(Session, MajorityTruth) {
  SessionKey key{Ipv4(9, 9, 9, 9), 1};
  Session s(key, Timestamp(0));
  EXPECT_EQ(s.majority_truth(), Truth::kUnknown);
  auto r = make(key.ip, 0.0);
  r.truth = Truth::kMalicious;
  s.add(r);
  r.truth = Truth::kBenign;
  r.time = Timestamp(1'000'000);
  s.add(r);
  r.time = Timestamp(2'000'000);
  s.add(r);
  EXPECT_EQ(s.majority_truth(), Truth::kBenign);
}

TEST(Session, SingleRequestRateIsCount) {
  SessionKey key{Ipv4(9, 9, 9, 9), 1};
  Session s(key, Timestamp(0));
  s.add(make(key.ip, 0.0));
  EXPECT_DOUBLE_EQ(s.duration_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.request_rate(), 1.0);
}

TEST(Sessionizer, CompletedCountMatchesSinkInvocations) {
  std::size_t sunk = 0;
  Sessionizer sessionizer(5.0, [&sunk](Session&&) { ++sunk; });
  for (int i = 0; i < 20; ++i) {
    sessionizer.add(make(Ipv4(1, 1, 1, static_cast<std::uint8_t>(i % 3)),
                         i * 60.0));  // every gap splits
  }
  sessionizer.flush_all();
  EXPECT_EQ(sessionizer.completed_sessions(), sunk);
  EXPECT_EQ(sunk, 20u);
}

// --- UaInfoCache ----------------------------------------------------------

using divscrape::httplog::classify_user_agent;
using divscrape::httplog::kHashedUaTokenBit;
using divscrape::httplog::kLocalUaTokenBit;
using divscrape::httplog::kMaxLocalUaTokens;
using divscrape::httplog::UaFamily;
using divscrape::httplog::UaInfoCache;

constexpr const char* kCurlUa = "curl/7.58.0";
constexpr const char* kChromeUa =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
    "like Gecko) Chrome/64.0.3282.186 Safari/537.36";

// A cached token answers from the cache: asking again with another string
// (which a real token never maps to) still returns the first result.
TEST(UaInfoCache, StampedTokensAreClassifiedOnce) {
  UaInfoCache cache;
  EXPECT_EQ(cache.get(3, kCurlUa).family, UaFamily::kScriptClient);
  EXPECT_EQ(cache.get(3, kChromeUa).family, UaFamily::kScriptClient);
  EXPECT_EQ(cache.get(1, kChromeUa).family, UaFamily::kBrowser);
  EXPECT_EQ(cache.get(1, kCurlUa).family, UaFamily::kBrowser);
}

// Local and stamped token spaces are independent: local token 3 is not
// stamped token 3.
TEST(UaInfoCache, LocalTokensHaveTheirOwnCache) {
  UaInfoCache cache;
  EXPECT_EQ(cache.get(3, kCurlUa).family, UaFamily::kScriptClient);
  EXPECT_EQ(cache.get(3 | kLocalUaTokenBit, kChromeUa).family,
            UaFamily::kBrowser);
  EXPECT_EQ(cache.get(3 | kLocalUaTokenBit, kCurlUa).family,
            UaFamily::kBrowser);
  EXPECT_EQ(cache.get(3, kChromeUa).family, UaFamily::kScriptClient);
}

// Hashed tokens (a full local interner), stamped tokens past the cap and
// the invalid token 0 are classified directly on every call: the same key
// with another string gives that string's classification.
TEST(UaInfoCache, HashedAndPastCapTokensAreNeverCached) {
  UaInfoCache cache;
  const std::uint32_t hashed = kLocalUaTokenBit | kHashedUaTokenBit | 77;
  const auto past_cap = static_cast<std::uint32_t>(kMaxLocalUaTokens + 1);
  for (const std::uint32_t key : {hashed, past_cap, std::uint32_t{0}}) {
    EXPECT_EQ(cache.get(key, kCurlUa).family, UaFamily::kScriptClient);
    EXPECT_EQ(cache.get(key, kChromeUa).family, UaFamily::kBrowser);
    EXPECT_EQ(cache.get(key, kCurlUa).family, UaFamily::kScriptClient);
  }
  // The last token under the cap is still cached.
  const auto at_cap = static_cast<std::uint32_t>(kMaxLocalUaTokens);
  EXPECT_EQ(cache.get(at_cap, kCurlUa).family, UaFamily::kScriptClient);
  EXPECT_EQ(cache.get(at_cap, kChromeUa).family, UaFamily::kScriptClient);
}

TEST(UaInfoCache, ClearForgetsEveryToken) {
  UaInfoCache cache;
  (void)cache.get(2, kCurlUa);
  (void)cache.get(2 | kLocalUaTokenBit, kCurlUa);
  cache.clear();
  EXPECT_EQ(cache.get(2, kChromeUa).family, UaFamily::kBrowser);
  EXPECT_EQ(cache.get(2 | kLocalUaTokenBit, kChromeUa).family,
            UaFamily::kBrowser);
}

// Every field of the cached result is classify_user_agent's.
TEST(UaInfoCache, ResultsEqualDirectClassification) {
  UaInfoCache cache;
  const char* uas[] = {kCurlUa, kChromeUa, "", "-", "Googlebot/2.1",
                       "Mozilla/5.0 (X11) HeadlessChrome/70.0 Safari/537",
                       "Mozilla/4.0 (compatible; MSIE 6.0)"};
  std::uint32_t token = 1;
  for (const char* ua : uas) {
    const auto want = classify_user_agent(ua);
    for (const std::uint32_t key : {token, token | kLocalUaTokenBit}) {
      const auto got = cache.get(key, ua);
      EXPECT_EQ(got.family, want.family) << ua;
      EXPECT_EQ(got.browser_major, want.browser_major) << ua;
      EXPECT_EQ(got.declared_bot, want.declared_bot) << ua;
      EXPECT_EQ(got.stale_fingerprint, want.stale_fingerprint) << ua;
      EXPECT_EQ(got.scripted, want.scripted) << ua;
    }
    ++token;
  }
}

}  // namespace
