// eval::Scorer on hand-built verdict streams with metrics known in
// advance, the ROC/AUC sweep it scores with, plus the DetectionDocument
// round-trip and schema pin the CI smoke gate depends on.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/scorer.hpp"
#include "gtest/gtest.h"
#include "stats/rng.hpp"

namespace {

using namespace divscrape;
using detectors::AlertReason;
using detectors::Verdict;
using httplog::Truth;

httplog::LogRecord record_at(Truth truth, std::uint32_t actor,
                             double t_seconds) {
  httplog::LogRecord record;
  record.truth = truth;
  record.actor_id = actor;
  record.time =
      httplog::Timestamp(static_cast<std::int64_t>(t_seconds * 1e6));
  return record;
}

Verdict verdict(bool alert, double score,
                AlertReason reason = AlertReason::kNone) {
  Verdict v;
  v.alert = alert;
  v.score = score;
  v.reason = reason;
  return v;
}

TEST(EvalScorer, ConfusionAndDerivedRates) {
  eval::Scorer scorer({"a", "b"});
  // 4 malicious, 3 benign. Detector "a": 3 tp, 1 fn, 1 fp, 2 tn.
  // Detector "b" never alerts; the ensemble therefore equals "a".
  const auto feed = [&](Truth truth, bool a_alert, std::uint32_t actor) {
    const Verdict verdicts[2] = {verdict(a_alert, a_alert ? 0.9 : 0.1),
                                 verdict(false, 0.0)};
    scorer.observe(record_at(truth, actor, actor), verdicts);
  };
  feed(Truth::kMalicious, true, 1);
  feed(Truth::kMalicious, true, 2);
  feed(Truth::kMalicious, true, 3);
  feed(Truth::kMalicious, false, 4);
  feed(Truth::kBenign, true, 5);
  feed(Truth::kBenign, false, 6);
  feed(Truth::kBenign, false, 7);

  const auto score = scorer.finish("hand_built", 1.0);
  EXPECT_EQ(score.records, 7u);
  EXPECT_EQ(score.truth_malicious, 4u);
  EXPECT_EQ(score.truth_benign, 3u);
  EXPECT_EQ(score.actors_attacking, 4u);
  ASSERT_EQ(score.columns.size(), 3u);  // a, b, ensemble

  const auto* a = score.column("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->tp, 3u);
  EXPECT_EQ(a->fn, 1u);
  EXPECT_EQ(a->fp, 1u);
  EXPECT_EQ(a->tn, 2u);
  EXPECT_DOUBLE_EQ(a->precision(), 0.75);
  EXPECT_DOUBLE_EQ(a->recall(), 0.75);
  EXPECT_DOUBLE_EQ(a->f1(), 0.75);

  const auto* b = score.column("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->tp, 0u);
  EXPECT_EQ(b->fn, 4u);
  EXPECT_DOUBLE_EQ(b->precision(), 0.0);  // 0/0 convention
  EXPECT_DOUBLE_EQ(b->recall(), 0.0);
  EXPECT_DOUBLE_EQ(b->f1(), 0.0);

  const auto* ensemble = score.column("ensemble_1oo2");
  ASSERT_NE(ensemble, nullptr);
  EXPECT_EQ(ensemble->tp, a->tp);
  EXPECT_EQ(ensemble->fp, a->fp);
  EXPECT_EQ(&score.columns.back(), ensemble) << "ensemble is always last";
}

TEST(EvalScorer, AucMatchesHandComputedRanking) {
  eval::Scorer scorer({"only"});
  // Scores 0.1(b) 0.9(m) 0.8(b) 0.4(m): of the 4 benign-malicious pairs,
  // 3 are ranked correctly => AUC = 0.75.
  const struct {
    Truth truth;
    double score;
  } stream[] = {{Truth::kBenign, 0.1},
                {Truth::kMalicious, 0.9},
                {Truth::kBenign, 0.8},
                {Truth::kMalicious, 0.4}};
  std::uint32_t actor = 1;
  for (const auto& item : stream) {
    const Verdict verdicts[1] = {verdict(false, item.score)};
    scorer.observe(record_at(item.truth, actor, actor), verdicts);
    ++actor;
  }
  const auto score = scorer.finish("auc", 1.0);
  EXPECT_DOUBLE_EQ(score.columns[0].auc, 0.75);
  // The single-detector ensemble is the same ranking.
  EXPECT_DOUBLE_EQ(score.columns.back().auc, 0.75);
}

TEST(EvalScorer, UnknownTruthIsExcludedEverywhere) {
  eval::Scorer scorer({"only"});
  const Verdict alerting[1] = {verdict(true, 1.0, AlertReason::kRateLimit)};
  scorer.observe(record_at(Truth::kUnknown, 9, 0.0), alerting);
  EXPECT_EQ(scorer.records_scored(), 0u);
  const auto score = scorer.finish("unknown", 1.0);
  EXPECT_EQ(score.records, 0u);
  EXPECT_EQ(score.actors_attacking, 0u);
  EXPECT_EQ(score.columns[0].tp, 0u);
  EXPECT_EQ(score.columns[0].fp, 0u);
  EXPECT_TRUE(score.columns[0].unique_reasons.empty());
}

TEST(EvalScorer, TimeToDetectFromActorsFirstRecord) {
  eval::Scorer scorer({"only"});
  const auto feed = [&](std::uint32_t actor, double t, bool alert) {
    const Verdict verdicts[1] = {verdict(alert, alert ? 1.0 : 0.0)};
    scorer.observe(record_at(Truth::kMalicious, actor, t), verdicts);
  };
  // Actor 1: first seen t=0, first alert t=10 (the later alert at t=20
  // must not move it). Actor 2: detected on its very first record => 0s.
  feed(1, 0.0, false);
  feed(1, 10.0, true);
  feed(1, 20.0, true);
  feed(2, 5.0, true);

  const auto score = scorer.finish("ttd", 1.0);
  const auto& column = score.columns[0];
  EXPECT_EQ(score.actors_attacking, 2u);
  EXPECT_EQ(column.actors_detected, 2u);
  // Sample {0, 10}: mean 5; nearest-rank p50 = 0, p90 = 10.
  EXPECT_DOUBLE_EQ(column.ttd_mean_s, 5.0);
  EXPECT_DOUBLE_EQ(column.ttd_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(column.ttd_p90_s, 10.0);
}

TEST(EvalScorer, UniqueAlertAttributionAndUniqueActors) {
  eval::Scorer scorer({"a", "b"});
  const auto feed = [&](std::uint32_t actor, double t, const Verdict& va,
                        const Verdict& vb,
                        Truth truth = Truth::kMalicious) {
    const Verdict verdicts[2] = {va, vb};
    scorer.observe(record_at(truth, actor, t), verdicts);
  };
  const auto quiet = verdict(false, 0.0);
  // Actor 1: only "a" ever alerts (rate-limit twice, bad-user-agent once).
  feed(1, 0.0, verdict(true, 0.9, AlertReason::kRateLimit), quiet);
  feed(1, 1.0, verdict(true, 0.9, AlertReason::kRateLimit), quiet);
  feed(1, 2.0, verdict(true, 0.8, AlertReason::kBadUserAgent), quiet);
  // Actor 2: both alert on the same record — unique for neither.
  feed(2, 3.0, verdict(true, 0.9, AlertReason::kIpReputation),
       verdict(true, 0.7, AlertReason::kBehavioral));
  // Actor 3: only "b" alerts.
  feed(3, 4.0, quiet, verdict(true, 0.6, AlertReason::kBehavioral));
  // A benign single-tool alert must NOT enter the reason attribution.
  feed(4, 5.0, verdict(true, 0.5, AlertReason::kFingerprint), quiet,
       Truth::kBenign);

  const auto score = scorer.finish("unique", 1.0);
  const auto* a = score.column("a");
  const auto* b = score.column("b");
  const auto* ensemble = score.column("ensemble_1oo2");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(ensemble, nullptr);

  const std::vector<eval::ReasonCount> want_a = {{"rate-limit", 2},
                                                 {"bad-user-agent", 1}};
  EXPECT_EQ(a->unique_reasons, want_a);
  const std::vector<eval::ReasonCount> want_b = {{"behavioral", 1}};
  EXPECT_EQ(b->unique_reasons, want_b);
  EXPECT_TRUE(ensemble->unique_reasons.empty());

  EXPECT_EQ(a->actors_detected, 2u);  // actors 1 and 2
  EXPECT_EQ(b->actors_detected, 2u);  // actors 2 and 3
  EXPECT_EQ(a->actors_unique, 1u);    // actor 1
  EXPECT_EQ(b->actors_unique, 1u);    // actor 3
  EXPECT_EQ(ensemble->actors_detected, 3u);
  EXPECT_EQ(ensemble->actors_unique, 0u) << "ensemble is never 'unique'";
}

TEST(EvalScorer, RejectsEmptyPoolAndMismatchedVerdicts) {
  EXPECT_THROW(eval::Scorer({}), std::invalid_argument);
  eval::Scorer scorer({"a", "b"});
  const Verdict one[1] = {verdict(false, 0.0)};
  EXPECT_THROW(scorer.observe(record_at(Truth::kBenign, 1, 0.0), one),
               std::invalid_argument);
}

TEST(EvalScorerDocument, RoundTripsThroughJsonAndDisk) {
  eval::Scorer scorer({"a", "b"});
  const auto feed = [&](Truth truth, bool a_alert, bool b_alert,
                        std::uint32_t actor, double t) {
    const Verdict verdicts[2] = {
        verdict(a_alert, a_alert ? 0.9 : 0.2, AlertReason::kRateLimit),
        verdict(b_alert, b_alert ? 0.7 : 0.1, AlertReason::kBehavioral)};
    scorer.observe(record_at(truth, actor, t), verdicts);
  };
  feed(Truth::kMalicious, true, false, 1, 0.0);
  feed(Truth::kMalicious, false, true, 2, 1.5);
  feed(Truth::kBenign, false, false, 3, 2.0);
  feed(Truth::kBenign, true, false, 4, 3.0);

  eval::DetectionDocument document;
  document.scenarios.push_back(scorer.finish("round_trip", 0.25));

  std::string error;
  const auto reparsed =
      eval::DetectionDocument::from_json(document.to_json(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(*reparsed, document);

  const std::string path = ::testing::TempDir() + "detection_doc.json";
  ASSERT_TRUE(document.save(path));
  const auto loaded = eval::DetectionDocument::load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, document);
  std::remove(path.c_str());
}

TEST(EvalScorerDocument, SchemaVersionIsPinned) {
  // The committed BENCH_detection.json and the CI smoke gate both name
  // this exact string; bump it only with a migration.
  EXPECT_EQ(eval::DetectionDocument::kSchema, "divscrape.bench_detection.v1");

  eval::DetectionDocument document;
  std::string json = document.to_json();
  const auto pos = json.find("bench_detection.v1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 18, "bench_detection.v2");
  std::string error;
  EXPECT_FALSE(eval::DetectionDocument::from_json(json, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  EXPECT_FALSE(eval::DetectionDocument::from_json("{}", &error).has_value());
  EXPECT_FALSE(
      eval::DetectionDocument::from_json("not json", &error).has_value());
}

TEST(EvalScorerDocument, RejectsMalformedScenarioEntries) {
  const std::string no_columns =
      R"({"schema":"divscrape.bench_detection.v1","bench":"bench_detection",)"
      R"("scenarios":[{"scenario":"x","columns":[]}]})";
  std::string error;
  EXPECT_FALSE(
      eval::DetectionDocument::from_json(no_columns, &error).has_value());
  EXPECT_NE(error.find("columns"), std::string::npos) << error;

  const std::string unnamed_column =
      R"({"schema":"divscrape.bench_detection.v1","bench":"bench_detection",)"
      R"("scenarios":[{"scenario":"x","columns":[{"tp":1}]}]})";
  EXPECT_FALSE(
      eval::DetectionDocument::from_json(unnamed_column, &error).has_value());
  EXPECT_NE(error.find("name"), std::string::npos) << error;
}

TEST(Auc, PerfectRankingIsOne) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(eval::auc(scores, labels), 1.0);
}

TEST(Auc, ReversedRankingIsZero) {
  const std::vector<double> scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(eval::auc(scores, labels), 0.0);
}

TEST(Auc, RandomScoresNearHalf) {
  stats::Rng rng(8);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 20'000; ++i) {
    scores.push_back(rng.uniform());
    labels.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  EXPECT_NEAR(eval::auc(scores, labels), 0.5, 0.02);
}

TEST(Auc, TiesHandled) {
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(eval::auc(scores, labels), 0.5);
}

TEST(Roc, MonotoneAndAnchored) {
  stats::Rng rng(9);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int label = rng.bernoulli(0.4) ? 1 : 0;
    scores.push_back(rng.normal(label == 1 ? 1.0 : 0.0, 1.0));
    labels.push_back(label);
  }
  const auto curve = eval::roc_curve(scores, labels);
  ASSERT_GE(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
  }
}

}  // namespace
