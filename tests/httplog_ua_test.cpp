// User-Agent taxonomy tests, including every UA the simulator emits —
// the detector behaviour hinges on these classifications.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <set>
#include <string>
#include <vector>

#include "httplog/useragent.hpp"
#include "stats/rng.hpp"
#include "traffic/ua_pool.hpp"

namespace {

using divscrape::httplog::classify_user_agent;
using divscrape::httplog::UaFamily;
using divscrape::httplog::UserAgentInfo;

TEST(Ua, EmptyAndDash) {
  EXPECT_EQ(classify_user_agent("").family, UaFamily::kEmpty);
  EXPECT_EQ(classify_user_agent("-").family, UaFamily::kEmpty);
}

TEST(Ua, DeclaredBots) {
  const auto googlebot = classify_user_agent(
      "Mozilla/5.0 (compatible; Googlebot/2.1; "
      "+http://www.google.com/bot.html)");
  EXPECT_EQ(googlebot.family, UaFamily::kDeclaredBot);
  EXPECT_TRUE(googlebot.declared_bot);

  EXPECT_TRUE(classify_user_agent("UptimeRobot/2.0").declared_bot);
  EXPECT_TRUE(classify_user_agent("SomeRandomBot/0.1").declared_bot);
  EXPECT_TRUE(classify_user_agent("my-spider 1.0").declared_bot);
}

TEST(Ua, ScriptClients) {
  for (const auto* ua :
       {"curl/7.58.0", "python-requests/2.18.4", "Scrapy/1.5.0",
        "Go-http-client/1.1", "Java/1.8.0_161", "Wget/1.19"}) {
    const auto info = classify_user_agent(ua);
    EXPECT_EQ(info.family, UaFamily::kScriptClient) << ua;
    EXPECT_TRUE(info.scripted) << ua;
  }
}

TEST(Ua, HeadlessBrowsers) {
  const auto headless = classify_user_agent(
      "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like "
      "Gecko) HeadlessChrome/64.0.3282.119 Safari/537.36");
  EXPECT_EQ(headless.family, UaFamily::kHeadless);
  EXPECT_TRUE(headless.scripted);
  EXPECT_EQ(headless.browser_major, 64);

  EXPECT_EQ(classify_user_agent("Mozilla/5.0 PhantomJS/2.1.1").family,
            UaFamily::kHeadless);
}

TEST(Ua, ModernBrowsersNotStale) {
  const auto chrome = classify_user_agent(
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36");
  EXPECT_EQ(chrome.family, UaFamily::kBrowser);
  EXPECT_EQ(chrome.browser_major, 64);
  EXPECT_FALSE(chrome.stale_fingerprint);
  EXPECT_FALSE(chrome.scripted);

  // Safari's Version/11 token must NOT read as "browser version 11 = old".
  const auto safari = classify_user_agent(
      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_3) AppleWebKit/604.5.6 "
      "(KHTML, like Gecko) Version/11.0.3 Safari/604.5.6");
  EXPECT_EQ(safari.family, UaFamily::kBrowser);
  EXPECT_FALSE(safari.stale_fingerprint);
}

TEST(Ua, StaleBrowsersFlagged) {
  EXPECT_TRUE(classify_user_agent(
                  "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 "
                  "(KHTML, like Gecko) Chrome/41.0.2272.89 Safari/537.36")
                  .stale_fingerprint);
  EXPECT_TRUE(classify_user_agent(
                  "Mozilla/5.0 (Windows NT 6.1; rv:40.0) Gecko/20100101 "
                  "Firefox/40.1")
                  .stale_fingerprint);
  EXPECT_TRUE(
      classify_user_agent("Mozilla/4.0 (compatible; MSIE 8.0; Windows NT)")
          .stale_fingerprint);
}

TEST(Ua, UnknownString) {
  const auto info = classify_user_agent("totally custom client");
  EXPECT_EQ(info.family, UaFamily::kUnknown);
  EXPECT_FALSE(info.scripted);
}

// Pool-consistency properties: every UA the simulator can emit classifies
// into the family its actor model assumes.
TEST(UaPool, BrowserPoolClassifiesAsBrowser) {
  divscrape::stats::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto ua = divscrape::traffic::sample_browser_ua(rng);
    const auto info = classify_user_agent(ua);
    EXPECT_EQ(info.family, UaFamily::kBrowser) << ua;
    EXPECT_FALSE(info.stale_fingerprint) << ua;
  }
}

TEST(UaPool, StalePoolIsStaleBrowser) {
  divscrape::stats::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto ua = divscrape::traffic::sample_stale_browser_ua(rng);
    const auto info = classify_user_agent(ua);
    EXPECT_EQ(info.family, UaFamily::kBrowser) << ua;
    EXPECT_TRUE(info.stale_fingerprint) << ua;
  }
}

TEST(UaPool, CrawlerPoolIsDeclared) {
  divscrape::stats::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(classify_user_agent(divscrape::traffic::sample_crawler_ua(rng))
                    .declared_bot);
  }
}

TEST(UaPool, ScriptAndHeadlessPoolsAreScripted) {
  divscrape::stats::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(
        classify_user_agent(divscrape::traffic::sample_script_ua(rng))
            .scripted);
    EXPECT_TRUE(
        classify_user_agent(divscrape::traffic::sample_headless_ua(rng))
            .scripted);
  }
}

TEST(UaPool, MonitorIsDeclaredBot) {
  EXPECT_TRUE(classify_user_agent(divscrape::traffic::monitor_ua())
                  .declared_bot);
}

// --- Differential test against the per-character classifier ------------
//
// classify_user_agent lowercases the UA once and runs plain substring
// searches. The implementation it replaced ran a std::search with a
// std::tolower comparator per marker; it is kept here verbatim as the
// reference, and both must agree on every field.

bool reference_contains_icase(std::string_view haystack,
                              std::string_view needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  const auto it = std::search(
      haystack.begin(), haystack.end(), needle.begin(), needle.end(),
      [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
      });
  return it != haystack.end();
}

int reference_version_after(std::string_view ua, std::string_view token) {
  const auto pos = ua.find(token);
  if (pos == std::string_view::npos) return 0;
  const char* begin = ua.data() + pos + token.size();
  const char* end = ua.data() + ua.size();
  int value = 0;
  const auto [next, ec] = std::from_chars(begin, end, value);
  return ec == std::errc{} && next != begin ? value : 0;
}

UserAgentInfo reference_classify(std::string_view ua) {
  constexpr std::array<std::string_view, 8> kDeclaredBots = {
      "Googlebot",   "bingbot",   "Slurp",     "DuckDuckBot",
      "Baiduspider", "YandexBot", "AhrefsBot", "UptimeRobot"};
  constexpr std::array<std::string_view, 9> kScriptMarkers = {
      "curl/",          "python-requests", "Python-urllib",
      "Scrapy",         "Go-http-client",  "Java/",
      "okhttp",         "libwww-perl",     "Wget"};
  constexpr std::array<std::string_view, 3> kHeadlessMarkers = {
      "HeadlessChrome", "PhantomJS", "SlimerJS"};
  UserAgentInfo info;
  if (ua.empty() || ua == "-") {
    info.family = UaFamily::kEmpty;
    return info;
  }
  for (const auto marker : kHeadlessMarkers) {
    if (reference_contains_icase(ua, marker)) {
      info.family = UaFamily::kHeadless;
      info.scripted = true;
      info.browser_major = reference_version_after(ua, "HeadlessChrome/");
      return info;
    }
  }
  for (const auto bot : kDeclaredBots) {
    if (reference_contains_icase(ua, bot)) {
      info.family = UaFamily::kDeclaredBot;
      info.declared_bot = true;
      return info;
    }
  }
  if (reference_contains_icase(ua, "bot") ||
      reference_contains_icase(ua, "spider") ||
      reference_contains_icase(ua, "crawler")) {
    info.family = UaFamily::kDeclaredBot;
    info.declared_bot = true;
    return info;
  }
  for (const auto marker : kScriptMarkers) {
    if (reference_contains_icase(ua, marker)) {
      info.family = UaFamily::kScriptClient;
      info.scripted = true;
      return info;
    }
  }
  if (ua.find("Mozilla/") != std::string_view::npos) {
    info.family = UaFamily::kBrowser;
    if (const int v = reference_version_after(ua, "Chrome/"); v > 0) {
      info.browser_major = v;
      info.stale_fingerprint = v < 50;
    } else if (const int fx = reference_version_after(ua, "Firefox/");
               fx > 0) {
      info.browser_major = fx;
      info.stale_fingerprint = fx < 50;
    } else if (const int sf = reference_version_after(ua, "Version/");
               sf > 0) {
      info.browser_major = sf;
    } else if (const int msie = reference_version_after(ua, "MSIE ");
               msie > 0) {
      info.browser_major = msie;
      info.stale_fingerprint = true;
    }
    return info;
  }
  return info;
}

void expect_same_as_reference(std::string_view ua) {
  const UserAgentInfo got = classify_user_agent(ua);
  const UserAgentInfo want = reference_classify(ua);
  const std::string shown(ua);
  EXPECT_EQ(got.family, want.family) << shown;
  EXPECT_EQ(got.browser_major, want.browser_major) << shown;
  EXPECT_EQ(got.declared_bot, want.declared_bot) << shown;
  EXPECT_EQ(got.stale_fingerprint, want.stale_fingerprint) << shown;
  EXPECT_EQ(got.scripted, want.scripted) << shown;
}

TEST(UaDifferential, EveryPoolUaMatchesTheReference) {
  divscrape::stats::Rng rng(7);
  std::set<std::string> pool{std::string(divscrape::traffic::monitor_ua())};
  for (int i = 0; i < 2000; ++i) {
    pool.emplace(divscrape::traffic::sample_browser_ua(rng));
    pool.emplace(divscrape::traffic::sample_stale_browser_ua(rng));
    pool.emplace(divscrape::traffic::sample_crawler_ua(rng));
    pool.emplace(divscrape::traffic::sample_script_ua(rng));
    pool.emplace(divscrape::traffic::sample_headless_ua(rng));
  }
  EXPECT_GE(pool.size(), 20u);
  for (const std::string& ua : pool) expect_same_as_reference(ua);
}

TEST(UaDifferential, EdgeCasesMatchTheReference) {
  const std::vector<std::string> cases = {
      "",
      "-",
      "--",
      " ",
      "bot",
      "BOT",
      "RoBoT",
      "SPIDER-man",
      "WebCrawler",
      "yahoo! slurp",
      "CURL/8.0",
      "curl",
      "PYTHON-REQUESTS/2.31",
      "python-URLLIB/3.11",
      "sCrApY/2.0",
      "GO-HTTP-CLIENT/2.0",
      "java/17",
      "JAVA/17",
      "OkHttp/4.9",
      "LIBWWW-PERL/6",
      "wget/1.21",
      "Mozilla/5.0 HEADLESSCHROME/119.0 Safari/537.36",
      "Mozilla/5.0 (X11) HeadlessChrome/ Safari/537.36",
      "Mozilla/5.0 (X11) HeadlessChrome/x Safari/537.36",
      "phantomjs/2.1",
      "SLIMERJS",
      "Mozilla/5.0 (Windows NT 10.0) Chrome/",
      "Mozilla/5.0 (Windows NT 10.0) Chrome/4",
      "Mozilla/5.0 (Windows NT 10.0) Chrome/49.0.2623",
      "Mozilla/5.0 (Windows NT 10.0) Chrome/-5",
      "Mozilla/5.0 (Windows NT 10.0) Chrome/99999999999999999999",
      "Mozilla/5.0 Firefox/",
      "Mozilla/5.0 Firefox/3",
      "Mozilla/5.0 (Macintosh) Version/11.1 Safari/605",
      "Mozilla/5.0 Version/",
      "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
      "Mozilla/4.0 (compatible; MSIE ",
      "mozilla/5.0 chrome/70",
      "Mozilla/",
      "Mozilla",
      "Mozilla/5.0 (Linux; Android 8.0) Chr\xc3\xb6me/64 caf\xc3\xa9",
      "\xff\xfe\x80 curl/7 \x00 tail",
      std::string("Mozilla/5.0 \x00 Chrome/61", 23),
      "\xc4\xb0" "BOT",  // non-ASCII bytes before the marker
      "Mozilla/5.0 \xe2\x82\xac Firefox/45.0",
      std::string(600, 'a') + "Bot",  // longer than the stack buffer
      std::string(600, 'M') + " Mozilla/5.0 Chrome/30",
      "totally custom client",
  };
  for (const std::string& ua : cases) expect_same_as_reference(ua);
}

// Every marker in every case pattern that differs only in letter case.
TEST(UaDifferential, MixedCaseMarkersMatchTheReference) {
  const std::vector<std::string> markers = {
      "HeadlessChrome", "PhantomJS",   "SlimerJS",    "Googlebot",
      "bingbot",        "Slurp",       "DuckDuckBot", "Baiduspider",
      "YandexBot",      "AhrefsBot",   "UptimeRobot", "spider",
      "crawler",        "curl/",       "python-requests",
      "Python-urllib",  "Scrapy",      "Go-http-client", "Java/",
      "okhttp",         "libwww-perl", "Wget"};
  for (const std::string& marker : markers) {
    for (unsigned mask = 0; mask < 8; ++mask) {
      std::string variant = marker;
      for (std::size_t i = 0; i < variant.size(); ++i) {
        const bool upper = ((mask >> (i % 3)) & 1U) != 0;
        const unsigned char c = static_cast<unsigned char>(variant[i]);
        variant[i] = static_cast<char>(upper ? std::toupper(c)
                                             : std::tolower(c));
      }
      expect_same_as_reference(variant);
      expect_same_as_reference("Mozilla/5.0 (X11) " + variant + " Chrome/80");
      // Truncated marker: one character short never matches.
      expect_same_as_reference(variant.substr(0, variant.size() - 1));
    }
  }
}

}  // namespace
