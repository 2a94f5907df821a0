// Heuristic-labeller tests: session features, session judging, the
// stream-clock session rule, stream labelling, and the audit against
// simulator truth (the paper's Section V labelling step).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "catalog_stream.hpp"
#include "core/labeling.hpp"

namespace {

using divscrape::core::HeuristicLabeler;
using divscrape::core::Session;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;
using divscrape::httplog::Truth;

constexpr const char* kBrowserUa =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
    "like Gecko) Chrome/64.0.3282.186 Safari/537.36";

Session make_session(const char* ua,
                     const std::vector<std::tuple<double, const char*, int,
                                                  const char*>>& requests) {
  Session session;
  for (const auto& [t, target, status, referer] : requests) {
    LogRecord r;
    r.ip = Ipv4(9, 9, 9, 9);
    r.user_agent = ua;
    r.time = Timestamp(static_cast<std::int64_t>(t * 1e6));
    r.target = target;
    r.status = status;
    r.referer = referer;
    session.add(r);
  }
  return session;
}

TEST(Session, FeatureAggregates) {
  const auto s = make_session(kBrowserUa, {{0.0, "/offers/1", 200, "-"},
                                           {10.0, "/offers/2", 200, "-"},
                                           {20.0, "/static/app-1.js", 200, "-"},
                                           {30.0, "/offers/3", 404, "-"}});
  EXPECT_EQ(s.request_count(), 4u);
  EXPECT_DOUBLE_EQ(s.duration_s(), 30.0);
  EXPECT_NEAR(s.request_rate(), 4.0 / 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.asset_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(s.error_ratio(), 0.25);
  // Templates: /offers/{n} and /static/app-1.js -> entropy > 0 but low.
  EXPECT_GT(s.template_entropy(), 0.0);
  EXPECT_LT(s.template_entropy(), 1.0);
}

TEST(Session, RefererRatio) {
  const auto s = make_session(
      kBrowserUa,
      {{0.0, "/offers/1", 200, "https://x/"}, {1.0, "/offers/1", 200, "-"}});
  EXPECT_DOUBLE_EQ(s.referer_ratio(), 0.5);
}

TEST(Session, SingleRequestRateIsCount) {
  const auto s = make_session(kBrowserUa, {{0.0, "/offers/1", 200, "-"}});
  EXPECT_DOUBLE_EQ(s.duration_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.request_rate(), 1.0);
}

TEST(Labeler, ShortSessionsStayUnknown) {
  HeuristicLabeler labeler;
  const auto session =
      make_session(kBrowserUa, {{0.0, "/offers/1", 200, "-"},
                                {1.0, "/offers/2", 200, "-"}});
  EXPECT_EQ(labeler.judge(session), Truth::kUnknown);
}

TEST(Labeler, ScriptedUaIsDecisive) {
  HeuristicLabeler labeler;
  std::vector<std::tuple<double, const char*, int, const char*>> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back({i * 5.0, "/offers/1", 200, "-"});
  const auto session = make_session("curl/7.58.0", reqs);
  EXPECT_EQ(labeler.judge(session), Truth::kMalicious);
}

TEST(Labeler, DeclaredCrawlerIsBenign) {
  HeuristicLabeler labeler;
  std::vector<std::tuple<double, const char*, int, const char*>> reqs;
  for (int i = 0; i < 50; ++i) reqs.push_back({i * 0.2, "/offers/1", 200, "-"});
  const auto session = make_session(
      "Mozilla/5.0 (compatible; Googlebot/2.1; "
      "+http://www.google.com/bot.html)",
      reqs);
  EXPECT_EQ(labeler.judge(session), Truth::kBenign);
}

TEST(Labeler, CatalogueSweepJudgedMalicious) {
  HeuristicLabeler labeler;
  std::vector<std::string> paths;
  std::vector<std::tuple<double, const char*, int, const char*>> reqs;
  paths.reserve(60);
  for (int i = 0; i < 60; ++i)
    paths.push_back("/offers/" + std::to_string(1000 + i));
  for (int i = 0; i < 60; ++i)
    reqs.push_back({i * 0.4, paths[static_cast<std::size_t>(i)].c_str(), 200,
                    "-"});
  const auto session = make_session(kBrowserUa, reqs);
  EXPECT_EQ(labeler.judge(session), Truth::kMalicious);
}

TEST(Labeler, BrowsingSessionJudgedBenign) {
  HeuristicLabeler labeler;
  const char* referer = "https://shop.example.com/search";
  const auto session = make_session(
      kBrowserUa, {{0.0, "/search?from=NCE&to=LHR", 200, "-"},
                   {0.5, "/static/app-1.js", 200, referer},
                   {0.9, "/static/theme-2.css", 200, referer},
                   {20.0, "/offers/12", 200, referer},
                   {21.0, "/static/offers-4.js", 200, referer},
                   {55.0, "/offers/99", 200, referer},
                   {90.0, "/book/99", 302, referer}});
  EXPECT_EQ(labeler.judge(session), Truth::kBenign);
}

TEST(Labeler, AmbiguousSessionStaysUnknown) {
  HeuristicLabeler labeler;
  // Bot-fast rate but with assets and diverse templates: one automation
  // signal against two human signals — inside the decision margin.
  const char* referer = "https://shop.example.com/";
  const auto session = make_session(
      kBrowserUa, {{0.0, "/offers/1", 200, "-"},
                   {1.0, "/offers/2", 200, referer},
                   {2.0, "/static/app-1.js", 200, "-"},
                   {3.0, "/offers/3", 200, "-"},
                   {4.0, "/search?from=NCE&to=LHR", 200, referer}});
  EXPECT_EQ(labeler.judge(session), Truth::kUnknown);
}

TEST(Labeler, LabelOverwritesTruthInPlace) {
  // Build a small stream: one scripted sweep + one human-ish session.
  std::vector<LogRecord> records;
  for (int i = 0; i < 30; ++i) {
    LogRecord r;
    r.ip = Ipv4(1, 1, 1, 1);
    r.user_agent = "python-requests/2.18.4";
    r.time = Timestamp(i * 2'000'000);
    r.target = "/offers/" + std::to_string(i);
    r.truth = Truth::kUnknown;
    records.push_back(r);
  }
  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  EXPECT_EQ(result.records, 30u);
  EXPECT_EQ(result.labeled_malicious, 30u);
  for (const auto& r : records) EXPECT_EQ(r.truth, Truth::kMalicious);
}

TEST(Labeler, SessionBoundariesRespected) {
  // Two sessions of the same client separated by > timeout; the first is
  // a scripted sweep, the second is too short to judge.
  std::vector<LogRecord> records;
  for (int i = 0; i < 20; ++i) {
    LogRecord r;
    r.ip = Ipv4(2, 2, 2, 2);
    r.user_agent = "curl/7.58.0";
    r.time = Timestamp(i * 1'000'000);
    r.target = "/offers/1";
    records.push_back(r);
  }
  for (int i = 0; i < 2; ++i) {
    LogRecord r;
    r.ip = Ipv4(2, 2, 2, 2);
    r.user_agent = "curl/7.58.0";
    r.time = Timestamp((10'000 + i) * std::int64_t{1'000'000});  // ~2.8h later
    r.target = "/offers/1";
    records.push_back(r);
  }
  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  EXPECT_EQ(result.labeled_malicious, 20u);
  EXPECT_EQ(result.left_unknown, 2u);
  EXPECT_EQ(records[20].truth, Truth::kUnknown);
}

LogRecord curl_request(Ipv4 ip, double t_s) {
  LogRecord r;
  r.ip = ip;
  r.user_agent = "curl/7.58.0";
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.target = "/offers/1";
  return r;
}

TEST(Labeler, BackwardsStepStaysInItsSession) {
  // A session's gap is measured from its latest request, not from the
  // previous line: 1860 s is within the timeout of 100 s, so the step back
  // to 50 s does not split the session.
  std::vector<LogRecord> records;
  for (const double t : {0.0, 10.0, 20.0, 100.0, 50.0, 1860.0})
    records.push_back(curl_request(Ipv4(3, 3, 3, 3), t));
  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  EXPECT_EQ(result.labeled_malicious, 6u);
  EXPECT_EQ(result.left_unknown, 0u);
  for (const auto& r : records) EXPECT_EQ(r.truth, Truth::kMalicious);
}

TEST(Labeler, StreamClockClosesIdleSessions) {
  // Another client moves the stream clock past the first client's last
  // request plus the timeout, which closes that session. The first
  // client's next request starts a new session although its timestamp
  // lies within the timeout of its last.
  const Ipv4 client(4, 4, 4, 4);
  std::vector<LogRecord> records;
  for (int i = 0; i < 6; ++i) records.push_back(curl_request(client, i * 10.0));
  records.push_back(curl_request(Ipv4(5, 5, 5, 5), 2000.0));
  records.push_back(curl_request(client, 60.0));
  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  EXPECT_EQ(result.labeled_malicious, 6u);
  EXPECT_EQ(result.left_unknown, 2u);
  EXPECT_EQ(records.back().truth, Truth::kUnknown);
}

TEST(Labeler, PinnedTalliesOnSmokeStream) {
  // The smoke stream is time-ordered, so its sessions are the ones the
  // gap rule has always produced; these tallies pin them.
  std::vector<LogRecord> records = divscrape::test::catalog_records("smoke");
  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  EXPECT_EQ(result.records, records.size());
  EXPECT_EQ(result.labeled_malicious, 5311u);
  EXPECT_EQ(result.labeled_benign, 441u);
  EXPECT_EQ(result.left_unknown, 404u);
}

TEST(Labeler, AuditAgainstSimulatorTruth) {
  // End-to-end: generate labelled traffic, scrub the labels, re-label
  // heuristically, audit. The conservative labeller must be high-purity
  // (low disagreement where it decides) with substantial coverage.
  auto spec = divscrape::test::catalog_spec("smoke");
  spec.duration_days = 0.5;
  std::vector<LogRecord> records = divscrape::test::records_of(spec);
  std::vector<Truth> reference;
  for (auto& r : records) {
    reference.push_back(r.truth);
    r.truth = Truth::kUnknown;  // scrub: the analyst's starting position
  }

  HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  const auto audit = HeuristicLabeler::audit(reference, records);

  EXPECT_GT(result.coverage(), 0.5);
  ASSERT_GT(audit.decided, 0u);
  EXPECT_GT(audit.agreement(), 0.95);
}

TEST(Labeler, AuditSizeMismatchThrows) {
  std::vector<Truth> reference(3, Truth::kBenign);
  std::vector<LogRecord> labeled(2);
  EXPECT_THROW(static_cast<void>(HeuristicLabeler::audit(reference, labeled)),
               std::invalid_argument);
}

}  // namespace
