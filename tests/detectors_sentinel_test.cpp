// SentinelDetector (commercial / Distil-role) behavioural tests: each
// mechanism in isolation, plus the reputation-persistence and subnet-
// escalation signatures the reproduction depends on.
#include <gtest/gtest.h>

#include <utility>

#include "catalog_stream.hpp"
#include "detectors/sentinel.hpp"
#include "stamp.hpp"
#include "util/state.hpp"

namespace {

using divscrape::detectors::AlertReason;
using divscrape::detectors::SentinelConfig;
using divscrape::detectors::SentinelDetector;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;

constexpr const char* kBrowserUa =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
    "like Gecko) Chrome/64.0.3282.186 Safari/537.36";
constexpr const char* kStaleUa =
    "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like "
    "Gecko) Chrome/41.0.2272.89 Safari/537.36";

LogRecord req(Ipv4 ip, double t_s, const char* ua = kBrowserUa) {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.user_agent = ua;
  r.target = "/offers/1";
  return divscrape::test::stamped(std::move(r));
}

TEST(Sentinel, ScriptUaAlertsImmediately) {
  SentinelDetector sentinel;
  const auto v = sentinel.evaluate(req(Ipv4(1, 2, 3, 4), 0.0, "curl/7.58.0"));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kBadUserAgent);
  EXPECT_DOUBLE_EQ(v.score, 1.0);
}

TEST(Sentinel, HeadlessUaAlertsImmediately) {
  SentinelDetector sentinel;
  const auto v = sentinel.evaluate(
      req(Ipv4(1, 2, 3, 4), 0.0,
          "Mozilla/5.0 (X11) HeadlessChrome/64.0 Safari/537.36"));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kBadUserAgent);
}

TEST(Sentinel, DeclaredCrawlerAllowlisted) {
  SentinelDetector sentinel;
  const Ipv4 ip(66, 249, 64, 10);
  // Even at scraper-like rates, Googlebot never alerts.
  for (int i = 0; i < 500; ++i) {
    const auto v = sentinel.evaluate(
        req(ip, i * 0.05,
            "Mozilla/5.0 (compatible; Googlebot/2.1; "
            "+http://www.google.com/bot.html)"));
    ASSERT_FALSE(v.alert) << "request " << i;
  }
}

TEST(Sentinel, BrowserAtHumanPaceNeverAlerts) {
  SentinelDetector sentinel;
  const Ipv4 ip(20, 30, 40, 50);
  for (int i = 0; i < 100; ++i) {
    const auto v = sentinel.evaluate(req(ip, i * 5.0));
    ASSERT_FALSE(v.alert) << "request " << i;
  }
}

TEST(Sentinel, BurstRateTrips) {
  SentinelDetector sentinel;
  const Ipv4 ip(20, 30, 40, 50);
  bool alerted = false;
  for (int i = 0; i < 40 && !alerted; ++i) {
    const auto v = sentinel.evaluate(req(ip, i * 0.2));  // 5 req/s
    alerted = v.alert;
    if (alerted) {
      EXPECT_EQ(v.reason, AlertReason::kRateLimit);
    }
  }
  EXPECT_TRUE(alerted);
}

TEST(Sentinel, ReputationPersistsAfterBurstEnds) {
  // The Distil-signature: once flagged, even slow requests keep alerting.
  SentinelDetector sentinel;
  const Ipv4 ip(20, 30, 40, 50);
  double t = 0.0;
  for (int i = 0; i < 60; ++i, t += 0.1)
    (void)sentinel.evaluate(req(ip, t));
  // Hours later, at gentle pace:
  t += 3600.0;
  const auto v = sentinel.evaluate(req(ip, t));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kIpReputation);
}

TEST(Sentinel, ReputationExpiresAfterTtl) {
  SentinelConfig config;
  config.reputation_ttl_s = 100.0;
  config.enable_subnet_escalation = false;
  SentinelDetector sentinel(config);
  const Ipv4 ip(20, 30, 40, 50);
  double t = 0.0;
  for (int i = 0; i < 60; ++i, t += 0.1) (void)sentinel.evaluate(req(ip, t));
  t += 1000.0;  // well past TTL
  const auto v = sentinel.evaluate(req(ip, t));
  EXPECT_FALSE(v.alert);
}

TEST(Sentinel, SubnetEscalationSweepsNeighbours) {
  SentinelDetector sentinel;
  // Three distinct violator IPs in 45.140.0.0/24.
  double t = 0.0;
  for (int host = 2; host <= 4; ++host) {
    for (int i = 0; i < 60; ++i, t += 0.1) {
      (void)sentinel.evaluate(req(Ipv4(45, 140, 0, static_cast<std::uint8_t>(host)), t));
    }
  }
  // A *never-seen* neighbour in the same /24 now alerts on first contact.
  const auto v = sentinel.evaluate(req(Ipv4(45, 140, 0, 200), t + 1.0));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kSubnetReputation);
  // But an address in a different /24 does not.
  const auto other = sentinel.evaluate(req(Ipv4(45, 140, 1, 200), t + 2.0));
  EXPECT_FALSE(other.alert);
  // The /24 stays flagged for its next newcomer too.
  EXPECT_EQ(sentinel.evaluate(req(Ipv4(45, 140, 0, 201), t + 3.0)).reason,
            AlertReason::kSubnetReputation);
}

TEST(Sentinel, SubnetEscalationRequiresThresholdIps) {
  SentinelDetector sentinel;
  double t = 0.0;
  // Only two violators: below the default threshold of 3.
  for (int host = 2; host <= 3; ++host) {
    for (int i = 0; i < 60; ++i, t += 0.1) {
      (void)sentinel.evaluate(
          req(Ipv4(45, 140, 0, static_cast<std::uint8_t>(host)), t));
    }
  }
  const auto v = sentinel.evaluate(req(Ipv4(45, 140, 0, 200), t + 1.0));
  EXPECT_FALSE(v.alert);
}

TEST(Sentinel, SubnetEscalationCanBeDisabled) {
  SentinelConfig config;
  config.enable_subnet_escalation = false;
  SentinelDetector sentinel(config);
  double t = 0.0;
  for (int host = 2; host <= 5; ++host) {
    for (int i = 0; i < 60; ++i, t += 0.1) {
      (void)sentinel.evaluate(
          req(Ipv4(45, 140, 0, static_cast<std::uint8_t>(host)), t));
    }
  }
  EXPECT_FALSE(sentinel.evaluate(req(Ipv4(45, 140, 0, 200), t + 1.0)).alert);
}

TEST(Sentinel, StaleFingerprintNeedsActivity) {
  SentinelDetector sentinel;
  const Ipv4 ip(30, 30, 30, 30);
  // A single stale-browser request does not alert...
  EXPECT_FALSE(sentinel.evaluate(req(ip, 0.0, kStaleUa)).alert);
  // ...but sustained activity with the stale fingerprint does.
  bool alerted = false;
  AlertReason reason = AlertReason::kNone;
  for (int i = 1; i < 20 && !alerted; ++i) {
    const auto v = sentinel.evaluate(req(ip, i * 3.0, kStaleUa));
    alerted = v.alert;
    reason = v.reason;
  }
  EXPECT_TRUE(alerted);
  EXPECT_EQ(reason, AlertReason::kFingerprint);
}

TEST(Sentinel, EmptyUaAlertsWithoutBlacklisting) {
  SentinelDetector sentinel;
  const Ipv4 ip(40, 40, 40, 40);
  const auto v = sentinel.evaluate(req(ip, 0.0, "-"));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kBadUserAgent);
  // A later normal-browser request from the same IP is clean (no flag).
  const auto later = sentinel.evaluate(req(ip, 10.0));
  EXPECT_FALSE(later.alert);
}

TEST(Sentinel, ResetClearsState) {
  SentinelDetector sentinel;
  const Ipv4 ip(20, 30, 40, 50);
  double t = 0.0;
  for (int i = 0; i < 60; ++i, t += 0.1) (void)sentinel.evaluate(req(ip, t));
  EXPECT_TRUE(sentinel.evaluate(req(ip, t + 60.0)).alert);
  sentinel.reset();
  EXPECT_FALSE(sentinel.evaluate(req(ip, t + 120.0)).alert);
  // Byte for byte what a fresh detector holds after the same request.
  SentinelDetector fresh;
  (void)fresh.evaluate(req(ip, t + 120.0));
  divscrape::util::StateWriter a;
  divscrape::util::StateWriter b;
  ASSERT_TRUE(sentinel.save_state(a));
  ASSERT_TRUE(fresh.save_state(b));
  EXPECT_EQ(a.take(), b.take());
}

// The detector.hpp contract for unstamped records (ua_token == 0): token 0
// classifies the UA uncached and Sentinel keys its state by IP, so an
// unstamped stream gets the stamped stream's verdicts, record for record.
TEST(Sentinel, UnstampedStreamGetsTheStampedVerdicts) {
  const auto records =
      divscrape::test::stamped(divscrape::test::catalog_records("smoke"));
  SentinelDetector stamped;
  SentinelDetector unstamped;
  std::size_t alerts = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    LogRecord bare = records[i];
    bare.ua_token = 0;
    const auto want = stamped.evaluate(records[i]);
    const auto got = unstamped.evaluate(bare);
    ASSERT_EQ(got.alert, want.alert) << "record " << i;
    ASSERT_EQ(got.reason, want.reason) << "record " << i;
    ASSERT_EQ(got.score, want.score) << "record " << i;
    alerts += want.alert;
  }
  EXPECT_GT(alerts, 0u);
  divscrape::util::StateWriter a;
  divscrape::util::StateWriter b;
  ASSERT_TRUE(stamped.save_state(a));
  ASSERT_TRUE(unstamped.save_state(b));
  EXPECT_EQ(a.take(), b.take());
}

TEST(Sentinel, ScoreGradedBelowThreshold) {
  SentinelDetector sentinel;
  const Ipv4 ip(50, 50, 50, 50);
  const auto v1 = sentinel.evaluate(req(ip, 0.0));
  double prev = v1.score;
  for (int i = 1; i < 10; ++i) {
    const auto v = sentinel.evaluate(req(ip, i * 0.3));
    EXPECT_FALSE(v.alert);
    EXPECT_GE(v.score, prev);  // progress toward the tripwire
    prev = v.score;
  }
}

// The UA classification memo (httplog::UaInfoCache) is keyed by token. A
// token means a different UA after reset() or a restore, so both must clear
// it: a stamped token 1 that was curl must not keep classifying as a script
// client once token 1 is a browser.
TEST(Sentinel, ResetAndLoadStateClearTheUaCache) {
  const auto stamped = [](LogRecord r) {
    r.ua_token = 1;
    return r;
  };
  SentinelDetector sentinel;
  EXPECT_TRUE(
      sentinel.evaluate(stamped(req(Ipv4(1, 2, 3, 4), 0.0, "curl/7.58.0")))
          .alert);
  sentinel.reset();
  EXPECT_FALSE(
      sentinel.evaluate(stamped(req(Ipv4(5, 6, 7, 8), 1.0, kBrowserUa))).alert);

  SentinelDetector fresh;
  divscrape::util::StateWriter w;
  ASSERT_TRUE(fresh.save_state(w));
  SentinelDetector used;
  EXPECT_TRUE(
      used.evaluate(stamped(req(Ipv4(1, 2, 3, 4), 0.0, "curl/7.58.0"))).alert);
  divscrape::util::StateReader r(w.buffer());
  ASSERT_TRUE(used.load_state(r));
  EXPECT_FALSE(
      used.evaluate(stamped(req(Ipv4(5, 6, 7, 8), 1.0, kBrowserUa))).alert);
}

}  // namespace
