// Core diversity-framework tests: contingency accounting, confusion
// matrices, joiner conservation invariants, adjudication monotonicity, and
// report formatting.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/confusion.hpp"
#include "core/contingency.hpp"
#include "core/joiner.hpp"
#include "core/report.hpp"
#include "detectors/detector.hpp"

namespace {

using divscrape::core::AlertCell;
using divscrape::core::ConfusionMatrix;
using divscrape::core::ContingencyTable;
using divscrape::core::DiversityMetrics;
using divscrape::core::JointResults;
using divscrape::core::TextTable;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Truth;
using Verdict = divscrape::detectors::Verdict;

TEST(Contingency, CellsAndMargins) {
  ContingencyTable t;
  t.observe(true, true);
  t.observe(true, true);
  t.observe(true, false);
  t.observe(false, true);
  t.observe(false, false);
  EXPECT_EQ(t.both(), 2u);
  EXPECT_EQ(t.first_only(), 1u);
  EXPECT_EQ(t.second_only(), 1u);
  EXPECT_EQ(t.neither(), 1u);
  EXPECT_EQ(t.total(), 5u);
  EXPECT_EQ(t.first_total(), 3u);
  EXPECT_EQ(t.second_total(), 3u);
}

TEST(Contingency, CellClassification) {
  EXPECT_EQ(ContingencyTable::cell(true, true), AlertCell::kBoth);
  EXPECT_EQ(ContingencyTable::cell(true, false), AlertCell::kFirstOnly);
  EXPECT_EQ(ContingencyTable::cell(false, true), AlertCell::kSecondOnly);
  EXPECT_EQ(ContingencyTable::cell(false, false), AlertCell::kNeither);
}

TEST(Contingency, MergeAdds) {
  ContingencyTable a, b;
  a.observe(true, true);
  b.observe(false, false);
  b.observe(true, false);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.first_only(), 1u);
}

TEST(Contingency, DiversityMetricsBundle) {
  ContingencyTable t;
  for (int i = 0; i < 80; ++i) t.observe(true, true);
  for (int i = 0; i < 10; ++i) t.observe(true, false);
  for (int i = 0; i < 5; ++i) t.observe(false, true);
  for (int i = 0; i < 5; ++i) t.observe(false, false);
  const auto m = DiversityMetrics::from(t.counts());
  EXPECT_GT(m.q_statistic, 0.0);
  EXPECT_NEAR(m.disagreement, 0.15, 1e-12);
  EXPECT_EQ(m.mcnemar.discordant, 15u);
}

TEST(Confusion, ObserveAndRates) {
  ConfusionMatrix cm;
  for (int i = 0; i < 90; ++i) cm.observe(Truth::kMalicious, true);
  for (int i = 0; i < 10; ++i) cm.observe(Truth::kMalicious, false);
  for (int i = 0; i < 95; ++i) cm.observe(Truth::kBenign, false);
  for (int i = 0; i < 5; ++i) cm.observe(Truth::kBenign, true);
  cm.observe(Truth::kUnknown, true);  // ignored
  EXPECT_EQ(cm.total(), 200u);
  EXPECT_DOUBLE_EQ(cm.sensitivity(), 0.9);
  EXPECT_DOUBLE_EQ(cm.specificity(), 0.95);
  const auto ci = cm.sensitivity_ci();
  EXPECT_LT(ci.lo, 0.9);
  EXPECT_GT(ci.hi, 0.9);
}

JointResults run_joint(const std::vector<std::array<bool, 3>>& verdict_rows,
                       const std::vector<Truth>& truths) {
  JointResults results({"d0", "d1", "d2"});
  for (std::size_t i = 0; i < verdict_rows.size(); ++i) {
    LogRecord r;
    r.ip = Ipv4(1, 1, 1, static_cast<std::uint8_t>(i));
    r.status = 200;
    r.truth = truths[i];
    std::vector<Verdict> verdicts(3);
    for (int d = 0; d < 3; ++d) {
      verdicts[static_cast<std::size_t>(d)] = {
          verdict_rows[i][static_cast<std::size_t>(d)], 1.0,
          divscrape::detectors::AlertReason::kRateLimit};
    }
    results.observe(r, verdicts);
  }
  return results;
}

TEST(JointResults, ConservationInvariants) {
  const std::vector<std::array<bool, 3>> rows = {
      {true, true, false},  {true, false, false}, {false, false, false},
      {false, true, true},  {true, true, true},   {false, false, true},
  };
  const std::vector<Truth> truths(rows.size(), Truth::kMalicious);
  const auto r = run_joint(rows, truths);

  EXPECT_EQ(r.total_requests(), rows.size());
  // Per-detector totals equal pair margins.
  EXPECT_EQ(r.alerts(0), r.pair(0, 1).first_total());
  EXPECT_EQ(r.alerts(1), r.pair(0, 1).second_total());
  EXPECT_EQ(r.alerts(1), r.pair(1, 2).first_total());
  EXPECT_EQ(r.alerts(2), r.pair(1, 2).second_total());
  // Every pair table sums to the stream size.
  EXPECT_EQ(r.pair(0, 1).total(), rows.size());
  EXPECT_EQ(r.pair(0, 2).total(), rows.size());
  EXPECT_EQ(r.pair(1, 2).total(), rows.size());
}

TEST(JointResults, UniqueAlertsCountedOnlyWhenSole) {
  const std::vector<std::array<bool, 3>> rows = {
      {true, false, false},  // unique to d0
      {true, true, false},   // not unique
      {false, false, true},  // unique to d2
  };
  const std::vector<Truth> truths(rows.size(), Truth::kBenign);
  const auto r = run_joint(rows, truths);
  EXPECT_EQ(r.unique_alert_status(0).total(), 1u);
  EXPECT_EQ(r.unique_alert_status(1).total(), 0u);
  EXPECT_EQ(r.unique_alert_status(2).total(), 1u);
  EXPECT_EQ(r.unique_reasons(0).total(), 1u);
}

TEST(JointResults, KofNAdjudicationMonotone) {
  const std::vector<std::array<bool, 3>> rows = {
      {true, true, true},  {true, true, false}, {true, false, false},
      {false, false, false},
  };
  std::vector<Truth> truths = {Truth::kMalicious, Truth::kMalicious,
                               Truth::kBenign, Truth::kBenign};
  const auto r = run_joint(rows, truths);
  // 1oo3 alerts most, 3oo3 least; sensitivity is monotone non-increasing
  // in k and specificity monotone non-decreasing.
  const auto& k1 = r.k_of_n_confusion(1);
  const auto& k2 = r.k_of_n_confusion(2);
  const auto& k3 = r.k_of_n_confusion(3);
  EXPECT_GE(k1.sensitivity(), k2.sensitivity());
  EXPECT_GE(k2.sensitivity(), k3.sensitivity());
  EXPECT_LE(k1.specificity(), k2.specificity());
  EXPECT_LE(k2.specificity(), k3.specificity());
  EXPECT_EQ(k1.tp + k1.fp, 3u);
  EXPECT_EQ(k3.tp + k3.fp, 1u);
}

TEST(JointResults, MergeEqualsConcatenation) {
  const std::vector<std::array<bool, 3>> rows_a = {
      {true, true, false}, {false, false, true}};
  const std::vector<std::array<bool, 3>> rows_b = {
      {true, false, false}, {false, false, false}, {true, true, true}};
  std::vector<std::array<bool, 3>> all = rows_a;
  all.insert(all.end(), rows_b.begin(), rows_b.end());

  const std::vector<Truth> ta(rows_a.size(), Truth::kMalicious);
  const std::vector<Truth> tb(rows_b.size(), Truth::kBenign);
  std::vector<Truth> tall = ta;
  tall.insert(tall.end(), tb.begin(), tb.end());

  auto merged = run_joint(rows_a, ta);
  merged.merge(run_joint(rows_b, tb));
  const auto whole = run_joint(all, tall);

  EXPECT_EQ(merged.total_requests(), whole.total_requests());
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(merged.alerts(d), whole.alerts(d));
    EXPECT_EQ(merged.confusion(d).tp, whole.confusion(d).tp);
    EXPECT_EQ(merged.confusion(d).tn, whole.confusion(d).tn);
  }
  EXPECT_EQ(merged.pair(0, 2).both(), whole.pair(0, 2).both());
  EXPECT_EQ(merged.k_of_n_confusion(2).tp, whole.k_of_n_confusion(2).tp);
}

TEST(JointResults, MergeRejectsDifferentPools) {
  JointResults a({"x"}), b({"y"});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(JointResults, PairIndexValidation) {
  JointResults r({"a", "b"});
  EXPECT_THROW(static_cast<void>(r.pair(1, 1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(r.pair(1, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(r.pair(0, 2)), std::out_of_range);
}

TEST(Report, ThousandsSeparators) {
  using divscrape::core::with_thousands;
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1'469'744), "1,469,744");
}

TEST(Report, DeviationAndShape) {
  using divscrape::core::deviation;
  using divscrape::core::shape_verdict;
  EXPECT_EQ(deviation(110, 100), "+10.0%");
  EXPECT_EQ(deviation(90, 100), "-10.0%");
  EXPECT_EQ(deviation(5, 0), "-");
  EXPECT_EQ(shape_verdict(150, 100), "ok");
  EXPECT_EQ(shape_verdict(51, 100), "ok");
  EXPECT_EQ(shape_verdict(49, 100), "off");
  EXPECT_EQ(shape_verdict(201, 100), "off");
  EXPECT_EQ(shape_verdict(0, 0), "ok");
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto rendered = t.to_string();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("---"), std::string::npos);
}

}  // namespace
