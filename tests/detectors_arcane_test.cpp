// ArcaneDetector (in-house behavioural) tests: warm-up floor, each
// behavioural signal, whitelisting, and the browser-vs-scraper separation
// the reproduction depends on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "detectors/arcane.hpp"
#include "stamp.hpp"
#include "util/state.hpp"

namespace {

using divscrape::detectors::AlertReason;
using divscrape::detectors::ArcaneConfig;
using divscrape::detectors::ArcaneDetector;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;

constexpr const char* kBrowserUa =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
    "like Gecko) Chrome/64.0.3282.186 Safari/537.36";

LogRecord req(Ipv4 ip, double t_s, std::string target,
              const char* ua = kBrowserUa, int status = 200,
              const char* referer = "-") {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.user_agent = ua;
  r.target = std::move(target);
  r.status = status;
  r.referer = referer;
  return divscrape::test::stamped(std::move(r));
}

TEST(Arcane, SilentDuringWarmup) {
  ArcaneDetector arcane;
  const Ipv4 ip(1, 2, 3, 4);
  const int floor = arcane.config().min_requests;
  for (int i = 0; i < floor - 1; ++i) {
    const auto v = arcane.evaluate(
        req(ip, i * 1.0, "/offers/" + std::to_string(i)));
    ASSERT_FALSE(v.alert) << "alerted during warm-up at " << i;
    ASSERT_EQ(v.score, 0.0);
  }
}

TEST(Arcane, CatalogueSweepAlertsAfterWarmup) {
  // A stealth catalogue sweep: browser UA, no assets, one template, no
  // referer — the signature rate-based tools miss.
  ArcaneDetector arcane;
  const Ipv4 ip(1, 2, 3, 4);
  bool alerted = false;
  int first_alert = -1;
  for (int i = 0; i < 30; ++i) {
    const auto v = arcane.evaluate(
        req(ip, i * 5.0, "/offers/" + std::to_string(1000 + i)));
    if (v.alert && !alerted) {
      alerted = true;
      first_alert = i;
      EXPECT_EQ(v.reason, AlertReason::kBehavioral);
    }
  }
  EXPECT_TRUE(alerted);
  EXPECT_GE(first_alert, arcane.config().min_requests - 1);
}

TEST(Arcane, HumanLikeBrowsingStaysClean) {
  // Pages with assets, referers, diverse templates at human pace.
  ArcaneDetector arcane;
  const Ipv4 ip(9, 9, 9, 9);
  double t = 0.0;
  const char* pages[] = {"/search?from=NCE&to=LHR", "/offers/12",
                         "/offers/44", "/help"};
  for (int round = 0; round < 10; ++round) {
    for (const char* page : pages) {
      auto page_req = req(ip, t, page, kBrowserUa, 200,
                          "https://shop.example.com/");
      ASSERT_FALSE(arcane.evaluate(page_req).alert) << "t=" << t;
      t += 0.3;
      auto asset = req(ip, t, "/static/app-1.js", kBrowserUa, 200,
                       "https://shop.example.com/");
      ASSERT_FALSE(arcane.evaluate(asset).alert) << "t=" << t;
      t += 12.0;
    }
  }
}

TEST(Arcane, ScriptedUaContributesToScore) {
  ArcaneDetector arcane;
  const Ipv4 ip(2, 2, 2, 2);
  bool alerted = false;
  AlertReason reason = AlertReason::kNone;
  for (int i = 0; i < 20 && !alerted; ++i) {
    const auto v = arcane.evaluate(
        req(ip, i * 4.0, "/offers/" + std::to_string(i), "curl/7.58.0"));
    alerted = v.alert;
    reason = v.reason;
  }
  EXPECT_TRUE(alerted);
  EXPECT_EQ(reason, AlertReason::kBadUserAgent);
}

TEST(Arcane, MalformedRequestPatternAlerts) {
  ArcaneDetector arcane;
  const Ipv4 ip(3, 3, 3, 3);
  bool saw_protocol_anomaly = false;
  for (int i = 0; i < 30; ++i) {
    const int status = i % 3 == 0 ? 400 : 200;
    const auto v = arcane.evaluate(req(
        ip, i * 4.0, "/offers/" + std::to_string(i) + "%zz", kBrowserUa,
        status));
    if (v.alert && v.reason == AlertReason::kProtocolAnomaly)
      saw_protocol_anomaly = true;
  }
  EXPECT_TRUE(saw_protocol_anomaly);
}

TEST(Arcane, ApiPollingPatternAlerts) {
  ArcaneDetector arcane;
  const Ipv4 ip(4, 4, 4, 4);
  bool alerted = false;
  for (int i = 0; i < 40 && !alerted; ++i) {
    const int status = i % 3 == 0 ? 204 : 200;
    const auto v = arcane.evaluate(
        req(ip, i * 2.0, "/api/availability?offer=" + std::to_string(i),
            kBrowserUa, status));
    alerted = v.alert;
  }
  EXPECT_TRUE(alerted);
}

TEST(Arcane, CacheSweepPatternAlerts) {
  ArcaneDetector arcane;
  const Ipv4 ip(5, 5, 5, 5);
  bool alerted = false;
  for (int i = 0; i < 30 && !alerted; ++i) {
    const int status = i % 5 == 0 ? 200 : 304;
    const auto v = arcane.evaluate(
        req(ip, i * 4.0, "/offers/" + std::to_string(i), kBrowserUa,
            status));
    alerted = v.alert;
  }
  EXPECT_TRUE(alerted);
}

TEST(Arcane, WindowForgetsOldBehaviour) {
  // After a long pause the sliding window drains; the next request is
  // below the behavioural floor again (the warm-up the commercial tool's
  // reputation covers — the paper's "Distil only" mass).
  ArcaneDetector arcane;
  const Ipv4 ip(6, 6, 6, 6);
  double t = 0.0;
  bool alerted = false;
  for (int i = 0; i < 40; ++i, t += 2.0) {
    alerted = arcane
                  .evaluate(req(ip, t, "/offers/" + std::to_string(i)))
                  .alert ||
              alerted;
  }
  EXPECT_TRUE(alerted);
  t += 24 * 3600.0;
  const auto v = arcane.evaluate(req(ip, t, "/offers/99999"));
  EXPECT_FALSE(v.alert);
}

TEST(Arcane, DeclaredBotGetsGraceVolume) {
  ArcaneDetector arcane;
  const Ipv4 ip(66, 249, 64, 10);
  const char* ua =
      "Mozilla/5.0 (compatible; Googlebot/2.1; "
      "+http://www.google.com/bot.html)";
  // A polite crawler at modest in-window volume never alerts.
  for (int i = 0; i < 25; ++i) {
    const auto v = arcane.evaluate(
        req(ip, i * 6.0, "/offers/" + std::to_string(i), ua));
    ASSERT_FALSE(v.alert) << i;
  }
}

TEST(Arcane, SlowClientNeverReachesBehaviouralFloor) {
  // One request every 30s: at most 4 in a 120s window, below the floor —
  // this is exactly why the slow fleet members are Sentinel-only catches.
  ArcaneDetector arcane;
  const Ipv4 ip(7, 7, 7, 7);
  for (int i = 0; i < 100; ++i) {
    const auto v =
        arcane.evaluate(req(ip, i * 30.0, "/offers/" + std::to_string(i)));
    ASSERT_FALSE(v.alert) << i;
  }
}

TEST(Arcane, ResetClearsClients) {
  ArcaneDetector arcane;
  const Ipv4 ip(8, 8, 8, 8);
  for (int i = 0; i < 30; ++i)
    (void)arcane.evaluate(req(ip, i * 2.0, "/offers/1"));
  EXPECT_GT(arcane.tracked_clients(), 0u);
  arcane.reset();
  EXPECT_EQ(arcane.tracked_clients(), 0u);
}

TEST(Arcane, ClientsKeyedByIpAndUa) {
  // Same IP, different UA = different behavioural context.
  ArcaneDetector arcane;
  const Ipv4 ip(11, 11, 11, 11);
  for (int i = 0; i < 40; ++i) {
    (void)arcane.evaluate(req(ip, i * 2.0, "/offers/" + std::to_string(i)));
  }
  // Fresh UA from the same IP starts cold: no alert on its first request.
  const auto v = arcane.evaluate(
      req(ip, 100.0, "/offers/5",
          "Mozilla/5.0 (Macintosh) AppleWebKit/604.5.6 (KHTML, like Gecko) "
          "Version/11.0.3 Safari/604.5.6"));
  EXPECT_FALSE(v.alert);
}

// The detector.hpp contract for unstamped records (ua_token == 0): Arcane
// keys them as (ip, 0), so every unstamped UA from one IP is one client,
// and a fresh UA continues that client's window instead of starting cold.
// Stamped, the same traffic is two clients (ClientsKeyedByIpAndUa).
TEST(Arcane, UnstampedUasFromOneIpShareOneClient) {
  const auto unstamped = [](LogRecord r) {
    r.ua_token = 0;
    return r;
  };
  ArcaneDetector arcane;
  const Ipv4 ip(11, 11, 11, 11);
  for (int i = 0; i < 40; ++i) {
    (void)arcane.evaluate(
        unstamped(req(ip, i * 2.0, "/offers/" + std::to_string(i))));
  }
  const auto v = arcane.evaluate(unstamped(
      req(ip, 100.0, "/offers/5",
          "Mozilla/5.0 (Macintosh) AppleWebKit/604.5.6 (KHTML, like Gecko) "
          "Version/11.0.3 Safari/604.5.6")));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(arcane.tracked_clients(), 1u);
}

TEST(Arcane, ScoreCappedAtOne) {
  ArcaneDetector arcane;
  const Ipv4 ip(12, 12, 12, 12);
  for (int i = 0; i < 100; ++i) {
    const auto v = arcane.evaluate(
        req(ip, i * 0.5, "/offers/1", "curl/7.58.0", i % 2 ? 400 : 204));
    ASSERT_LE(v.score, 1.0);
  }
}

// A new client's UA flags come from the detector's UaInfoCache, keyed by
// token. reset() and load_state() must clear it: once stamped token 1 is a
// browser, a client on it must score like a browser (no scripted-UA weight)
// even though token 1 was a script client before.
TEST(Arcane, ResetAndLoadStateClearTheUaCache) {
  const auto stamped = [](LogRecord r) {
    r.ua_token = 1;
    return r;
  };
  const auto scores = [&](ArcaneDetector& arcane) {
    std::vector<double> out;
    for (int i = 0; i < 12; ++i) {
      out.push_back(arcane
                        .evaluate(stamped(req(Ipv4(5, 6, 7, 8), 100.0 + i,
                                              "/offers/" + std::to_string(i))))
                        .score);
    }
    return out;
  };
  ArcaneDetector reference;
  const std::vector<double> browser_scores = scores(reference);

  ArcaneDetector reset_one;
  (void)reset_one.evaluate(
      stamped(req(Ipv4(1, 2, 3, 4), 0.0, "/", "curl/7.58.0")));
  reset_one.reset();
  EXPECT_EQ(scores(reset_one), browser_scores);

  ArcaneDetector fresh;
  divscrape::util::StateWriter w;
  ASSERT_TRUE(fresh.save_state(w));
  ArcaneDetector loaded;
  (void)loaded.evaluate(
      stamped(req(Ipv4(1, 2, 3, 4), 0.0, "/", "curl/7.58.0")));
  divscrape::util::StateReader r(w.buffer());
  ASSERT_TRUE(loaded.load_state(r));
  EXPECT_EQ(scores(loaded), browser_scores);
}

}  // namespace
