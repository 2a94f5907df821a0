// Parameterized property sweeps over the detector configuration space:
// alert volume must respond monotonically to thresholds, determinism must
// hold per configuration, and parsers must never crash on mutated input.
// Also pins the paper pair's order and names, which every result index
// relies on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "catalog_stream.hpp"
#include "clf_line.hpp"
#include "detectors/arcane.hpp"
#include "detectors/registry.hpp"
#include "detectors/sentinel.hpp"
#include "httplog/clf.hpp"
#include "stamp.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::detectors::ArcaneConfig;
using divscrape::detectors::ArcaneDetector;
using divscrape::detectors::SentinelConfig;
using divscrape::detectors::SentinelDetector;
using divscrape::httplog::LogRecord;

// A captive traffic slice shared by all properties in this file.
const std::vector<LogRecord>& captive_stream() {
  static const auto records = [] {
    auto spec = divscrape::test::catalog_spec("smoke");
    spec.duration_days = 0.15;
    return divscrape::test::stamped(divscrape::test::records_of(spec));
  }();
  return records;
}

std::uint64_t count_alerts(divscrape::detectors::Detector& detector) {
  std::uint64_t alerts = 0;
  for (const auto& r : captive_stream()) {
    alerts += detector.evaluate(r).alert;
  }
  return alerts;
}

// --- Sentinel threshold monotonicity ---------------------------------

class SentinelBurstSweep : public ::testing::TestWithParam<int> {};

TEST_P(SentinelBurstSweep, DeterministicPerConfig) {
  SentinelConfig config;
  config.burst_limit = GetParam();
  SentinelDetector a(config), b(config);
  EXPECT_EQ(count_alerts(a), count_alerts(b));
}

INSTANTIATE_TEST_SUITE_P(Limits, SentinelBurstSweep,
                         ::testing::Values(5, 10, 25, 50, 100));

TEST(SentinelProperty, AlertsMonotoneInBurstLimit) {
  // Stricter (smaller) burst limits can only alert on more requests:
  // every rate trip at limit L also trips at limit L' < L, and flags
  // propagate monotonically through reputation.
  std::uint64_t previous = UINT64_MAX;
  for (const int limit : {5, 15, 25, 60, 200}) {
    SentinelConfig config;
    config.burst_limit = limit;
    SentinelDetector detector(config);
    const auto alerts = count_alerts(detector);
    EXPECT_LE(alerts, previous) << "burst_limit " << limit;
    previous = alerts;
  }
}

TEST(SentinelProperty, AlertsMonotoneInSubnetThreshold) {
  std::uint64_t previous = UINT64_MAX;
  for (const int threshold : {1, 2, 3, 8, 1000}) {
    SentinelConfig config;
    config.subnet_flag_threshold = threshold;
    SentinelDetector detector(config);
    const auto alerts = count_alerts(detector);
    EXPECT_LE(alerts, previous) << "subnet threshold " << threshold;
    previous = alerts;
  }
}

TEST(SentinelProperty, DisablingMechanismsNeverAddsAlerts) {
  SentinelConfig base;
  SentinelDetector baseline(base);
  const auto baseline_alerts = count_alerts(baseline);
  for (const int mechanism : {0, 1, 2}) {
    SentinelConfig config;
    if (mechanism == 0) config.enable_reputation = false;
    if (mechanism == 1) config.enable_subnet_escalation = false;
    if (mechanism == 2) config.enable_fingerprinting = false;
    SentinelDetector detector(config);
    EXPECT_LE(count_alerts(detector), baseline_alerts)
        << "mechanism " << mechanism;
  }
}

// --- Arcane threshold monotonicity ------------------------------------

class ArcaneThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ArcaneThresholdSweep, ScoresRespectThreshold) {
  ArcaneConfig config;
  config.alert_threshold = GetParam();
  ArcaneDetector detector(config);
  for (const auto& r : captive_stream()) {
    const auto v = detector.evaluate(r);
    if (v.alert) {
      EXPECT_GE(v.score, GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ArcaneThresholdSweep,
                         ::testing::Values(0.3, 0.5, 0.6, 0.8, 0.95));

TEST(ArcaneProperty, AlertsMonotoneInThreshold) {
  std::uint64_t previous = UINT64_MAX;
  for (const double threshold : {0.2, 0.4, 0.6, 0.8, 1.01}) {
    ArcaneConfig config;
    config.alert_threshold = threshold;
    ArcaneDetector detector(config);
    const auto alerts = count_alerts(detector);
    EXPECT_LE(alerts, previous) << "threshold " << threshold;
    previous = alerts;
  }
}

TEST(ArcaneProperty, AlertsMonotoneInBehaviouralFloor) {
  std::uint64_t previous = UINT64_MAX;
  for (const int floor : {4, 10, 20, 40, 200}) {
    ArcaneConfig config;
    config.min_requests = floor;
    ArcaneDetector detector(config);
    const auto alerts = count_alerts(detector);
    EXPECT_LE(alerts, previous) << "floor " << floor;
    previous = alerts;
  }
}

// --- parser robustness -------------------------------------------------

TEST(ClfFuzz, MutatedLinesNeverCrashAndNeverFalselyParse) {
  divscrape::stats::Rng rng(0xfeedbeef);
  const auto& records = captive_stream();
  std::uint64_t parsed = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto& record = records[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(records.size()) - 1))];
    std::string line = divscrape::httplog::format_clf(record);
    // Mutate: deletions, flips, truncations, duplications.
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: line.erase(pos, 1); break;
        case 1:
          line[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 2: line = line.substr(0, pos); break;
        default: line.insert(pos, 1, line[pos]); break;
      }
    }
    const auto result = divscrape::test::parse_clf(line);
    // No crash is the main property; additionally, whatever parses must
    // be internally consistent.
    if (result.ok()) {
      ++parsed;
      EXPECT_GE(result.record->status, 100);
      EXPECT_LE(result.record->status, 599);
    } else {
      ++rejected;
    }
  }
  // Sanity: the mutator actually breaks most lines.
  EXPECT_GT(rejected, 1000u);
  (void)parsed;
}

TEST(DetectorFuzz, DetectorsToleratGarbageRecordsInTimeOrder) {
  // Records with hostile field contents must not break detector state.
  SentinelDetector sentinel;
  ArcaneDetector arcane;
  divscrape::test::Stamper stamp;
  divscrape::stats::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    LogRecord r;
    r.ip = divscrape::httplog::Ipv4(static_cast<std::uint32_t>(rng()));
    r.time = divscrape::httplog::Timestamp(i * 1000);
    const int shape = static_cast<int>(rng.uniform_int(0, 4));
    switch (shape) {
      case 0: r.target = ""; break;
      case 1: r.target = std::string(2048, 'A'); break;
      case 2: r.target = "/%%%%%%"; break;
      case 3: r.target = "/offers/../../etc/passwd"; break;
      default: r.target = "/\x01\x02\x03"; break;
    }
    r.user_agent = shape % 2 == 0 ? "" : std::string(512, '"');
    r.status = static_cast<int>(rng.uniform_int(100, 599));
    stamp(r);
    (void)sentinel.evaluate(r);
    (void)arcane.evaluate(r);
  }
  SUCCEED();
}

TEST(Registry, PaperPairOrderAndNames) {
  const auto pool = divscrape::detectors::make_paper_pair();
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[0]->name(), "sentinel");
  EXPECT_EQ(pool[1]->name(), "arcane");
}

}  // namespace
