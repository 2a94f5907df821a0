// End-to-end integration tests: the paper experiment at reduced scale must
// exhibit the published *shape* — who alerts more, where the unique-alert
// mass sits, what adjudication does to sensitivity/specificity. These are
// the inequalities the reproduction stands on; `divscrape_cli tables`
// prints the absolute numbers.
#include <gtest/gtest.h>

#include "core/contingency.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "workload/catalog.hpp"

namespace {

using divscrape::core::DiversityMetrics;
using divscrape::detectors::make_paper_pair;
using divscrape::eval::ExperimentOutput;
using divscrape::eval::run_experiment;
using divscrape::httplog::Truth;
using divscrape::workload::catalog_entry;

class PaperShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    output_ = new ExperimentOutput(
        run_experiment(*catalog_entry("amadeus_like", 0.04), make_paper_pair()));
  }
  static void TearDownTestSuite() {
    delete output_;
    output_ = nullptr;
  }
  static const divscrape::core::JointResults& results() {
    return output_->results;
  }
  static ExperimentOutput* output_;
};

ExperimentOutput* PaperShape::output_ = nullptr;

TEST_F(PaperShape, BotDominatedTrafficMix) {
  // The paper's deployment is bot-dominated (~84% malicious at full
  // scale). At the reduced test scale the fixed-size benign populations
  // (monitors, crawlers) weigh proportionally more, so the band is wider.
  const auto& r = results();
  const double malicious_fraction =
      static_cast<double>(r.truth_count(Truth::kMalicious)) /
      static_cast<double>(r.total_requests());
  EXPECT_GT(malicious_fraction, 0.6);
  EXPECT_LT(malicious_fraction, 0.95);
}

TEST_F(PaperShape, Table1SentinelAlertsMost) {
  // Distil alerted more than Arcane (1,275,056 vs 1,240,713).
  const auto& r = results();
  EXPECT_GT(r.alerts(0), r.alerts(1));
  // Both alert on the majority of traffic (86.8% / 84.4% at full scale;
  // the band is wider at test scale, see BotDominatedTrafficMix).
  const double total = static_cast<double>(r.total_requests());
  EXPECT_GT(static_cast<double>(r.alerts(0)) / total, 0.6);
  EXPECT_LT(static_cast<double>(r.alerts(0)) / total, 0.93);
  EXPECT_GT(static_cast<double>(r.alerts(1)) / total, 0.55);
}

TEST_F(PaperShape, Table2CellOrdering) {
  // both >> neither >> sentinel-only >> arcane-only, with the paper's
  // rough proportions (83.8% / 12.6% / 3.0% / 0.6%).
  const auto& pair = results().pair(0, 1);
  EXPECT_GT(pair.both(), pair.neither());
  EXPECT_GT(pair.neither(), pair.first_only());
  // Commercial-only unique mass exceeds in-house-only (4.7x in the paper;
  // at test scale the minimum-one-bot rounding inflates the small
  // populations behind the in-house-only mass, so only the direction and
  // a generous upper bound are asserted here — `divscrape_cli tables`
  // prints the full-scale ratio).
  EXPECT_GT(pair.first_only(), pair.second_only() * 9 / 10);
  EXPECT_LT(pair.first_only(), 12 * pair.second_only());
}

TEST_F(PaperShape, Table3StatusOrdering) {
  // Alerted traffic is dominated by 200 then 302 for both tools.
  for (std::size_t d = 0; d < 2; ++d) {
    const auto rows = results().alerted_status(d).by_count();
    ASSERT_GE(rows.size(), 2u) << d;
    EXPECT_EQ(rows[0].first, 200);
    EXPECT_EQ(rows[1].first, 302);
    EXPECT_GT(rows[0].second, 10 * rows[1].second);
  }
}

TEST_F(PaperShape, Table4UniqueAlertSkews) {
  const auto& r = results();
  // Arcane-only alerts over-represent 204 and 400 relative to
  // sentinel-only (the in-house tool's protocol/behavioural catches).
  const auto& arcane_only = r.unique_alert_status(1);
  const auto& sentinel_only = r.unique_alert_status(0);
  ASSERT_GT(arcane_only.total(), 0u);
  ASSERT_GT(sentinel_only.total(), 0u);
  const auto rate = [](const divscrape::stats::Counter<int>& c, int status) {
    return static_cast<double>(c.count(status)) /
           static_cast<double>(c.total());
  };
  EXPECT_GT(rate(arcane_only, 400), rate(sentinel_only, 400));
  EXPECT_GT(rate(arcane_only, 204), rate(sentinel_only, 204));
  // Sentinel-only is almost all 200s.
  EXPECT_GT(rate(sentinel_only, 200), 0.9);
}

TEST_F(PaperShape, GroundTruthConfusionOrdering) {
  // With labels (the paper's future work): both tools are specific; the
  // commercial tool trades a little specificity (subnet sweeps) for
  // sensitivity.
  const auto& sentinel = results().confusion(0);
  const auto& arcane = results().confusion(1);
  EXPECT_GT(sentinel.sensitivity(), 0.95);
  EXPECT_GT(arcane.sensitivity(), 0.90);
  EXPECT_GT(arcane.specificity(), 0.999);
  EXPECT_GE(sentinel.sensitivity(), arcane.sensitivity());
  EXPECT_GE(arcane.specificity(), sentinel.specificity());
}

TEST_F(PaperShape, AdjudicationTradeoffs) {
  // 1oo2 dominates both individual sensitivities; 2oo2 dominates both
  // individual specificities — the paper's Section V question, answered.
  const auto& r = results();
  const auto& one_oo_two = r.k_of_n_confusion(1);
  const auto& two_oo_two = r.k_of_n_confusion(2);
  EXPECT_GE(one_oo_two.sensitivity(), r.confusion(0).sensitivity());
  EXPECT_GE(one_oo_two.sensitivity(), r.confusion(1).sensitivity());
  EXPECT_GE(two_oo_two.specificity(), r.confusion(0).specificity());
  EXPECT_GE(two_oo_two.specificity(), r.confusion(1).specificity());
  EXPECT_GE(one_oo_two.sensitivity(), two_oo_two.sensitivity());
}

TEST_F(PaperShape, DiversityMetricsShowCorrelatedButDiverseTools) {
  const auto metrics =
      DiversityMetrics::from(results().pair(0, 1).counts());
  EXPECT_GT(metrics.q_statistic, 0.9);   // strongly correlated overall
  EXPECT_GT(metrics.disagreement, 0.0);  // but measurably diverse
  EXPECT_LT(metrics.disagreement, 0.1);
  EXPECT_LT(metrics.mcnemar.p_value, 1e-6);  // asymmetric unique masses
}

TEST_F(PaperShape, ReasonAttributionMatchesMechanisms) {
  const auto& r = results();
  // Sentinel's unique alerts are dominated by reputation/subnet persistence.
  const auto& sentinel_unique = r.unique_reasons(0);
  const auto rep = sentinel_unique.count("ip-reputation") +
                   sentinel_unique.count("subnet-reputation");
  EXPECT_GT(rep, sentinel_unique.total() / 2);
  // Arcane's unique alerts are behavioural-family reasons.
  const auto& arcane_unique = r.unique_reasons(1);
  EXPECT_GT(arcane_unique.count("behavioral") +
                arcane_unique.count("api-abuse") +
                arcane_unique.count("protocol-anomaly") +
                arcane_unique.count("cache-sweep"),
            arcane_unique.total() / 2);
}

TEST(IntegrationSmall, DeterministicAcrossRuns) {
  const auto spec = *catalog_entry("smoke");
  const auto a = run_experiment(spec, make_paper_pair());
  const auto b = run_experiment(spec, make_paper_pair());
  EXPECT_EQ(a.results.total_requests(), b.results.total_requests());
  EXPECT_EQ(a.results.alerts(0), b.results.alerts(0));
  EXPECT_EQ(a.results.alerts(1), b.results.alerts(1));
  EXPECT_EQ(a.results.pair(0, 1).both(), b.results.pair(0, 1).both());
}

}  // namespace
