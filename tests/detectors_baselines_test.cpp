// Baseline and learned-detector tests: the naive rate limiter, the
// honeypot trap, and the streaming wrapper around trained classifiers.
#include <gtest/gtest.h>

#include <memory>

#include "detectors/baselines.hpp"
#include "detectors/learned.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "ml/dataset.hpp"
#include "workload/catalog.hpp"

namespace {

using divscrape::detectors::AlertReason;
using divscrape::detectors::LearnedDetector;
using divscrape::detectors::RateLimitDetector;
using divscrape::detectors::TrapDetector;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;

LogRecord req(Ipv4 ip, double t_s, const char* target = "/offers/1") {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.target = target;
  r.user_agent = "UA";
  return r;
}

TEST(RateLimit, TripsAtConfiguredLimit) {
  RateLimitDetector detector(RateLimitDetector::Config{10.0, 5});
  const Ipv4 ip(1, 1, 1, 1);
  int alerts = 0;
  for (int i = 0; i < 5; ++i) {
    alerts += detector.evaluate(req(ip, i * 0.5)).alert;
  }
  EXPECT_EQ(alerts, 1);  // exactly the 5th request trips
}

TEST(RateLimit, WindowSlides) {
  RateLimitDetector detector(RateLimitDetector::Config{10.0, 5});
  const Ipv4 ip(1, 1, 1, 1);
  for (int i = 0; i < 4; ++i) (void)detector.evaluate(req(ip, i * 0.5));
  // After the window passes, the count restarts.
  EXPECT_FALSE(detector.evaluate(req(ip, 100.0)).alert);
  EXPECT_FALSE(detector.evaluate(req(ip, 100.5)).alert);
}

TEST(RateLimit, PerIpIsolation) {
  RateLimitDetector detector(RateLimitDetector::Config{10.0, 3});
  for (int i = 0; i < 2; ++i) {
    (void)detector.evaluate(req(Ipv4(1, 1, 1, 1), i * 0.1));
    (void)detector.evaluate(req(Ipv4(2, 2, 2, 2), i * 0.1));
  }
  // Neither IP individually reached 3.
  EXPECT_FALSE(detector.evaluate(req(Ipv4(3, 3, 3, 3), 1.0)).alert);
}

TEST(RateLimit, NoMemoryAcrossReset) {
  RateLimitDetector detector(RateLimitDetector::Config{10.0, 3});
  const Ipv4 ip(1, 1, 1, 1);
  for (int i = 0; i < 3; ++i) (void)detector.evaluate(req(ip, i * 0.1));
  detector.reset();
  EXPECT_FALSE(detector.evaluate(req(ip, 1.0)).alert);
}

TEST(Trap, TrapTouchFlagsClientForever) {
  TrapDetector trap;
  const Ipv4 ip(1, 1, 1, 1);
  EXPECT_FALSE(trap.evaluate(req(ip, 0.0, "/offers/1")).alert);
  const auto v = trap.evaluate(req(ip, 1.0, "/offers/old/900123"));
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kTrap);
  // Every later request from the trapped client alerts.
  EXPECT_TRUE(trap.evaluate(req(ip, 3600.0, "/offers/2")).alert);
  EXPECT_EQ(trap.trapped_clients(), 1u);
}

TEST(Trap, OtherClientsUnaffected) {
  TrapDetector trap;
  (void)trap.evaluate(req(Ipv4(1, 1, 1, 1), 0.0, "/offers/old/1"));
  EXPECT_FALSE(trap.evaluate(req(Ipv4(2, 2, 2, 2), 1.0, "/offers/1")).alert);
}

TEST(Trap, ResetReleasesClients) {
  TrapDetector trap;
  (void)trap.evaluate(req(Ipv4(1, 1, 1, 1), 0.0, "/offers/old/1"));
  trap.reset();
  EXPECT_FALSE(trap.evaluate(req(Ipv4(1, 1, 1, 1), 1.0, "/offers/1")).alert);
}

// A trivial classifier for wrapper tests: positive iff feature[12]
// (ua_scripted) is set.
class ScriptedOnly final : public divscrape::ml::Classifier {
 public:
  [[nodiscard]] double score(
      divscrape::span<const double> features) const override {
    return features.size() > 12 && features[12] > 0.5 ? 1.0 : 0.0;
  }
};

TEST(Learned, WarmupThenClassifierDrives) {
  LearnedDetector detector("test", std::make_shared<ScriptedOnly>(),
                           LearnedDetector::Config{1800.0, 4, 0.5});
  const Ipv4 ip(1, 1, 1, 1);
  LogRecord scripted = req(ip, 0.0);
  scripted.user_agent = "curl/7.58.0";
  // Below warm-up: silent even though the classifier would fire.
  for (int i = 0; i < 3; ++i) {
    scripted.time = Timestamp(i * 1'000'000);
    ASSERT_FALSE(detector.evaluate(scripted).alert);
  }
  scripted.time = Timestamp(4'000'000);
  const auto v = detector.evaluate(scripted);
  EXPECT_TRUE(v.alert);
  EXPECT_EQ(v.reason, AlertReason::kLearnedModel);
}

TEST(Learned, IdleGapResetsClientState) {
  LearnedDetector detector("test", std::make_shared<ScriptedOnly>(),
                           LearnedDetector::Config{10.0, 4, 0.5});
  const Ipv4 ip(1, 1, 1, 1);
  LogRecord scripted = req(ip, 0.0);
  scripted.user_agent = "curl/7.58.0";
  for (int i = 0; i < 6; ++i) {
    scripted.time = Timestamp(i * 1'000'000);
    (void)detector.evaluate(scripted);
  }
  // Long idle gap: state resets, warm-up applies again.
  scripted.time = Timestamp(1'000 * 1'000'000);
  EXPECT_FALSE(detector.evaluate(scripted).alert);
}

TEST(Registry, PaperPairOrderAndNames) {
  const auto pool = divscrape::detectors::make_paper_pair();
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0]->name(), "sentinel");
  EXPECT_EQ(pool[1]->name(), "arcane");
}

TEST(Registry, LearnedDetectorsTrainOnScenario) {
  // A day of smoke traffic gives the tree enough labelled sessions of
  // both classes to learn a stable split.
  auto spec = *divscrape::workload::catalog_entry("smoke");
  spec.duration_days = 1.0;
  const auto learned = divscrape::eval::make_learned_detectors(spec);
  ASSERT_EQ(learned.size(), 2u);
  EXPECT_EQ(learned[0]->name(), "naive-bayes");
  EXPECT_EQ(learned[1]->name(), "decision-tree");
  // Trained detectors must catch an obvious scripted sweep.
  for (const auto& d : learned) {
    const Ipv4 ip(77, 1, 2, 3);
    bool alerted = false;
    for (int i = 0; i < 60 && !alerted; ++i) {
      LogRecord r = req(ip, i * 0.5,
                        "/offers/");
      r.target += std::to_string(i);
      r.user_agent = "python-requests/2.18.4";
      alerted = d->evaluate(r).alert;
    }
    EXPECT_TRUE(alerted) << d->name();
  }
}

}  // namespace
