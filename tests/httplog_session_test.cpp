// Client-key tests: the UA classification memo behind the session key.
#include <gtest/gtest.h>

#include "httplog/session.hpp"

namespace {

using divscrape::httplog::classify_user_agent;
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

// Tokens past the cap and the unstamped token 0 are classified directly on
// every call: the same token with another string gives that string's
// classification.
TEST(UaInfoCache, HashedAndPastCapTokensAreNeverCached) {
  UaInfoCache cache;
  const std::uint32_t past_cap = UaInfoCache::kMaxTokens + 1;
  for (const std::uint32_t key : {past_cap, std::uint32_t{0}}) {
    EXPECT_EQ(cache.get(key, kCurlUa).family, UaFamily::kScriptClient);
    EXPECT_EQ(cache.get(key, kChromeUa).family, UaFamily::kBrowser);
    EXPECT_EQ(cache.get(key, kCurlUa).family, UaFamily::kScriptClient);
  }
  // The last token under the cap is still cached.
  const std::uint32_t at_cap = UaInfoCache::kMaxTokens;
  EXPECT_EQ(cache.get(at_cap, kCurlUa).family, UaFamily::kScriptClient);
  EXPECT_EQ(cache.get(at_cap, kChromeUa).family, UaFamily::kScriptClient);
}

TEST(UaInfoCache, ClearForgetsEveryToken) {
  UaInfoCache cache;
  (void)cache.get(2, kCurlUa);
  (void)cache.get(5, kCurlUa);
  cache.clear();
  EXPECT_EQ(cache.get(2, kChromeUa).family, UaFamily::kBrowser);
  EXPECT_EQ(cache.get(5, kChromeUa).family, UaFamily::kBrowser);
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
    const auto got = cache.get(token++, ua);
    EXPECT_EQ(got.family, want.family) << ua;
    EXPECT_EQ(got.browser_major, want.browser_major) << ua;
    EXPECT_EQ(got.declared_bot, want.declared_bot) << ua;
    EXPECT_EQ(got.stale_fingerprint, want.stale_fingerprint) << ua;
    EXPECT_EQ(got.scripted, want.scripted) << ua;
  }
}

}  // namespace
