// eval::Scorer on hand-built verdict streams with metrics known in
// advance, the ROC/AUC sweep it scores with, plus the DetectionDocument
// (write-only: read back here with core::parse_json) and the schema pin
// the CI smoke gate depends on.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/json_parse.hpp"
#include "eval/scorer.hpp"
#include "gtest/gtest.h"
#include "stats/rng.hpp"
#include "util/atomic_file.hpp"

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

  using Tallies = std::vector<std::pair<std::string, std::uint64_t>>;
  const auto tallies = [](const eval::ColumnScore& column) {
    Tallies out;
    for (const auto& r : column.unique_reasons)
      out.emplace_back(r.reason, r.count);
    return out;
  };
  EXPECT_EQ(tallies(*a), (Tallies{{"rate-limit", 2}, {"bad-user-agent", 1}}));
  EXPECT_EQ(tallies(*b), (Tallies{{"behavioral", 1}}));
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

/// Every stored field of `column` against its entry in a parsed document.
void expect_column_matches(const core::JsonValue& entry,
                           const eval::ColumnScore& column) {
  EXPECT_EQ(entry.string_or("name", ""), column.name);
  EXPECT_EQ(entry.u64_or("tp", 99), column.tp);
  EXPECT_EQ(entry.u64_or("fp", 99), column.fp);
  EXPECT_EQ(entry.u64_or("tn", 99), column.tn);
  EXPECT_EQ(entry.u64_or("fn", 99), column.fn);
  // Doubles are written with round-trip precision: compare exactly.
  EXPECT_EQ(entry.number_or("precision", -1.0), column.precision());
  EXPECT_EQ(entry.number_or("recall", -1.0), column.recall());
  EXPECT_EQ(entry.number_or("f1", -1.0), column.f1());
  EXPECT_EQ(entry.number_or("auc", -1.0), column.auc);
  EXPECT_EQ(entry.u64_or("actors_detected", 99), column.actors_detected);
  EXPECT_EQ(entry.u64_or("actors_unique", 99), column.actors_unique);
  EXPECT_EQ(entry.number_or("ttd_mean_s", -1.0), column.ttd_mean_s);
  EXPECT_EQ(entry.number_or("ttd_p50_s", -1.0), column.ttd_p50_s);
  EXPECT_EQ(entry.number_or("ttd_p90_s", -1.0), column.ttd_p90_s);
  const core::JsonValue* reasons = entry.find("unique_reasons");
  ASSERT_NE(reasons, nullptr);
  ASSERT_EQ(reasons->array().size(), column.unique_reasons.size());
  for (std::size_t i = 0; i < column.unique_reasons.size(); ++i) {
    EXPECT_EQ(reasons->array()[i].string_or("reason", ""),
              column.unique_reasons[i].reason);
    EXPECT_EQ(reasons->array()[i].u64_or("count", 0),
              column.unique_reasons[i].count);
  }
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
  const eval::ScenarioScore& score = document.scenarios.front();
  ASSERT_EQ(score.columns.size(), 3u);
  ASSERT_FALSE(score.columns[0].unique_reasons.empty());

  const std::string path = ::testing::TempDir() + "detection_doc.json";
  ASSERT_TRUE(document.save(path));
  const auto text = util::read_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, document.to_json() + "\n");

  std::string error;
  const auto doc = core::parse_json(*text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_or("schema", ""), eval::DetectionDocument::kSchema);
  EXPECT_EQ(doc->string_or("bench", ""), "bench_detection");
  const core::JsonValue* scenarios = doc->find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->array().size(), 1u);
  const core::JsonValue& entry = scenarios->array()[0];
  EXPECT_EQ(entry.string_or("scenario", ""), "round_trip");
  EXPECT_EQ(entry.number_or("scale", 0.0), 0.25);
  EXPECT_EQ(entry.u64_or("records", 99), score.records);
  EXPECT_EQ(entry.u64_or("truth_benign", 99), score.truth_benign);
  EXPECT_EQ(entry.u64_or("truth_malicious", 99), score.truth_malicious);
  EXPECT_EQ(entry.u64_or("actors_attacking", 99), score.actors_attacking);
  const core::JsonValue* columns = entry.find("columns");
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->array().size(), score.columns.size());
  for (std::size_t c = 0; c < score.columns.size(); ++c) {
    SCOPED_TRACE(score.columns[c].name);
    expect_column_matches(columns->array()[c], score.columns[c]);
  }
}

TEST(EvalScorerDocument, SchemaVersionIsPinned) {
  // The committed BENCH_detection.json and the CI smoke gate both name
  // this exact string; bump it only with a migration.
  EXPECT_EQ(eval::DetectionDocument::kSchema, "divscrape.bench_detection.v1");

  eval::DetectionDocument document;
  const std::string json = document.to_json();
  EXPECT_EQ(json.rfind(R"({"schema":"divscrape.bench_detection.v1",)", 0), 0u)
      << json;
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
