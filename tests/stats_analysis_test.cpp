// Tests for the analysis-side statistics: counters, proportion intervals,
// the paired-rater association measures the diversity framework is built
// on, and the double-fault pair accounting the ensemble analysis sits on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "core/joiner.hpp"
#include "stats/association.hpp"
#include "stats/counter.hpp"
#include "stats/intervals.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::stats::cohens_kappa;
using divscrape::stats::Counter;
using divscrape::stats::disagreement;
using divscrape::stats::mcnemar_test;
using divscrape::stats::PairedCounts;
using divscrape::stats::phi_coefficient;
using divscrape::stats::q_statistic;
using divscrape::stats::shannon_entropy;
using divscrape::stats::wilson_interval;

TEST(Counter, CountsAndOrdering) {
  Counter<int> c;
  c.add(200, 10);
  c.add(302, 3);
  c.add(404);
  c.add(200, 5);
  EXPECT_EQ(c.count(200), 15u);
  EXPECT_EQ(c.count(500), 0u);
  EXPECT_EQ(c.total(), 19u);
  EXPECT_EQ(c.distinct(), 3u);
  const auto rows = c.by_count();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, 200);
  EXPECT_EQ(rows[1].first, 302);
  EXPECT_EQ(rows[2].first, 404);
}

TEST(Counter, ByCountBreaksTiesByKey) {
  Counter<int> c;
  c.add(500, 2);
  c.add(204, 2);
  const auto rows = c.by_count();
  EXPECT_EQ(rows[0].first, 204);
  EXPECT_EQ(rows[1].first, 500);
}

TEST(Counter, MergeAdds) {
  Counter<std::string> a, b;
  a.add("x", 1);
  b.add("x", 2);
  b.add("y", 3);
  a.merge(b);
  EXPECT_EQ(a.count("x"), 3u);
  EXPECT_EQ(a.count("y"), 3u);
}

TEST(Entropy, UniformAndDegenerate) {
  Counter<int> uniform;
  for (int k = 0; k < 8; ++k) uniform.add(k, 5);
  EXPECT_NEAR(shannon_entropy(uniform), 3.0, 1e-12);  // log2(8)

  Counter<int> single;
  single.add(1, 100);
  EXPECT_DOUBLE_EQ(shannon_entropy(single), 0.0);

  Counter<int> empty;
  EXPECT_DOUBLE_EQ(shannon_entropy(empty), 0.0);
}

TEST(Wilson, KnownValue) {
  // 8/10 successes, 95%: Wilson interval approx [0.490, 0.943].
  const auto ci = wilson_interval(8, 10);
  EXPECT_DOUBLE_EQ(ci.point, 0.8);
  EXPECT_NEAR(ci.lo, 0.490, 0.005);
  EXPECT_NEAR(ci.hi, 0.943, 0.005);
}

TEST(Wilson, ZeroTrials) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.point, 0.0);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 0.0);
}

TEST(Wilson, ExtremesStayInUnitInterval) {
  for (const std::uint64_t n : {1ull, 5ull, 100ull, 100000ull}) {
    const auto lo = wilson_interval(0, n);
    EXPECT_GE(lo.lo, 0.0);
    EXPECT_GT(lo.hi, 0.0);  // never collapses to a point at the extreme
    const auto hi = wilson_interval(n, n);
    EXPECT_LT(hi.lo, 1.0);
    EXPECT_LE(hi.hi, 1.0);
  }
}

TEST(Wilson, NarrowerThanWaldNearExtremes) {
  // At p-hat = 1 the Wald interval p +- z * sqrt(p(1 - p) / n) degenerates
  // to [1, 1]; Wilson stays honest (nonzero width). This is why the
  // reports use Wilson.
  const auto wilson = wilson_interval(50, 50);
  EXPECT_DOUBLE_EQ(wilson.point, 1.0);
  EXPECT_LT(wilson.lo, 1.0);
  EXPECT_DOUBLE_EQ(wilson.hi, 1.0);
}

TEST(Association, PerfectAgreement) {
  const PairedCounts pc{50, 0, 0, 50};
  EXPECT_DOUBLE_EQ(q_statistic(pc), 1.0);
  EXPECT_DOUBLE_EQ(phi_coefficient(pc), 1.0);
  EXPECT_DOUBLE_EQ(disagreement(pc), 0.0);
  EXPECT_DOUBLE_EQ(cohens_kappa(pc), 1.0);
}

TEST(Association, PerfectDisagreement) {
  const PairedCounts pc{0, 50, 50, 0};
  EXPECT_DOUBLE_EQ(q_statistic(pc), -1.0);
  EXPECT_DOUBLE_EQ(phi_coefficient(pc), -1.0);
  EXPECT_DOUBLE_EQ(disagreement(pc), 1.0);
  EXPECT_DOUBLE_EQ(cohens_kappa(pc), -1.0);
}

TEST(Association, IndependenceGivesZeroPhi) {
  // Margins 0.5/0.5, independent: a=b=c=d.
  const PairedCounts pc{25, 25, 25, 25};
  EXPECT_DOUBLE_EQ(phi_coefficient(pc), 0.0);
  EXPECT_DOUBLE_EQ(q_statistic(pc), 0.0);
  EXPECT_DOUBLE_EQ(cohens_kappa(pc), 0.0);
}

TEST(Association, DegenerateTableIsZeroNotNan) {
  const PairedCounts all_both{100, 0, 0, 0};
  EXPECT_FALSE(std::isnan(phi_coefficient(all_both)));
  EXPECT_FALSE(std::isnan(cohens_kappa(all_both)));
  EXPECT_EQ(q_statistic(PairedCounts{}), 0.0);
}

TEST(Association, PaperTable2Values) {
  // The actual published contingency: strong correlation, tiny
  // disagreement, massively significant McNemar asymmetry.
  const PairedCounts paper{1'231'408, 43'648, 9'305, 185'383};
  EXPECT_GT(q_statistic(paper), 0.98);
  EXPECT_GT(phi_coefficient(paper), 0.85);
  EXPECT_NEAR(disagreement(paper), 0.036, 0.001);
  const auto mc = mcnemar_test(paper);
  EXPECT_GT(mc.statistic, 20'000.0);
  EXPECT_LT(mc.p_value, 1e-12);
}

TEST(McNemar, SymmetricDiscordanceNotSignificant) {
  const PairedCounts pc{100, 30, 30, 100};
  const auto mc = mcnemar_test(pc);
  EXPECT_NEAR(mc.statistic, 0.0, 0.02);
  EXPECT_GT(mc.p_value, 0.8);
}

TEST(McNemar, NoDiscordance) {
  const auto mc = mcnemar_test(PairedCounts{10, 0, 0, 10});
  EXPECT_EQ(mc.discordant, 0u);
  EXPECT_EQ(mc.p_value, 1.0);
}

TEST(ChiSquare1, KnownQuantiles) {
  // McNemar's p is the 1-d.o.f. chi-square tail at its statistic; these
  // discordant cells put the statistic next to the 5% and 1% quantiles
  // (3.841 and 6.635).
  // (|25 - 12| - 1)^2 / 37 = 3.892
  EXPECT_NEAR(mcnemar_test(PairedCounts{0, 25, 12, 0}).p_value, 0.05, 0.002);
  // (|44 - 22| - 1)^2 / 66 = 6.682
  EXPECT_NEAR(mcnemar_test(PairedCounts{0, 44, 22, 0}).p_value, 0.01, 0.001);
  EXPECT_EQ(mcnemar_test(PairedCounts{0, 5, 5, 0}).p_value, 1.0);
}

TEST(DoubleFault, ZeroWhenAtLeastOneToolAlwaysRight) {
  using divscrape::stats::double_fault;
  using divscrape::stats::PairedCounts;
  EXPECT_DOUBLE_EQ(double_fault(PairedCounts{0, 10, 10, 80}), 0.0);
  EXPECT_DOUBLE_EQ(double_fault(PairedCounts{25, 0, 0, 75}), 0.25);
  EXPECT_DOUBLE_EQ(double_fault(PairedCounts{}), 0.0);
}

TEST(DoubleFault, JointResultsFaultPairTracksSimultaneousErrors) {
  using divscrape::core::JointResults;
  using divscrape::httplog::Truth;
  using Verdict = divscrape::detectors::Verdict;

  JointResults results({"a", "b"});
  const auto feed = [&results](bool alert_a, bool alert_b, Truth truth) {
    constexpr auto kReason = divscrape::detectors::AlertReason::kBadUserAgent;
    divscrape::httplog::LogRecord r;
    r.truth = truth;
    const std::array<Verdict, 2> verdicts = {Verdict{alert_a, 1.0, kReason},
                                             Verdict{alert_b, 1.0, kReason}};
    results.observe(r, verdicts);
  };
  feed(false, false, Truth::kMalicious);  // both wrong (double fault)
  feed(true, false, Truth::kMalicious);   // only b wrong
  feed(true, true, Truth::kMalicious);    // both right
  feed(true, true, Truth::kBenign);       // both wrong (double fault)
  feed(false, false, Truth::kUnknown);    // excluded

  const auto& faults = results.fault_pair(0, 1);
  EXPECT_EQ(faults.total(), 4u);
  EXPECT_EQ(faults.both(), 2u);        // simultaneous errors
  EXPECT_EQ(faults.second_only(), 1u); // b wrong alone
  EXPECT_EQ(faults.neither(), 1u);     // both right
  EXPECT_DOUBLE_EQ(divscrape::stats::double_fault(faults.counts()), 0.5);
}

TEST(DoubleFault, BoundsAnyAdjudicationScheme) {
  // Property: the k-of-2 adjudication error count can never drop below
  // the double-fault mass — with both tools wrong, no vote can be right.
  using divscrape::core::JointResults;
  using divscrape::httplog::Truth;
  using Verdict = divscrape::detectors::Verdict;

  JointResults results({"a", "b"});
  divscrape::stats::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    divscrape::httplog::LogRecord r;
    r.truth = rng.bernoulli(0.7) ? Truth::kMalicious : Truth::kBenign;
    const std::array<Verdict, 2> verdicts = {
        Verdict{rng.bernoulli(0.8), 1.0,
                divscrape::detectors::AlertReason::kBadUserAgent},
        Verdict{rng.bernoulli(0.75), 1.0,
                divscrape::detectors::AlertReason::kBadUserAgent}};
    results.observe(r, verdicts);
  }
  const auto double_faults = results.fault_pair(0, 1).both();
  for (std::size_t k = 1; k <= 2; ++k) {
    const auto& cm = results.k_of_n_confusion(k);
    EXPECT_GE(cm.fp + cm.fn, double_faults) << "k=" << k;
  }
}

}  // namespace
