// Unit and property tests for the deterministic RNG and the heavy-tailed
// distributions the traffic simulator samples from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace {

using divscrape::stats::LogNormalDistribution;
using divscrape::stats::Rng;
using divscrape::stats::ZipfDistribution;

/// The exact Zipf(n, s) mass of ranks [lo, hi], the sum of k^-s / H(n, s):
/// the oracle the sampler's frequencies are checked against.
double zipf_mass(std::size_t n, double s, std::size_t lo, std::size_t hi) {
  double total = 0.0;
  double mass = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    const double w = std::pow(static_cast<double>(k), -s);
    total += w;
    if (k >= lo && k <= hi) mass += w;
  }
  return mass / total;
}

double zipf_pmf(std::size_t n, double s, std::size_t k) {
  return zipf_mass(n, s, k, k);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(2.5);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, GeometricMeanAndSupport) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.geometric(0.25);
    ASSERT_GE(v, 1);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, 4.0, 0.1);  // mean of geometric = 1/p
}

TEST(Rng, GeometricCertainSuccess) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(31);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(37);
  double sum = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.poisson(200.0);
    ASSERT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kN, 200.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(41);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.fork();
  Rng parent2(99);
  Rng child2 = parent2.fork();
  // Forks of identical parents are identical...
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child(), child2());
  // ...and differ from the parent's continuation.
  Rng parent3(99);
  (void)parent3.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += child() == parent3();
  EXPECT_LT(equal, 3);
}

TEST(Zipf, SingleRankAlwaysOne) {
  ZipfDistribution zipf(1, 1.2);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 1u);
}

TEST(Zipf, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.5), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  // The sampler's CDF is normalized by the full harmonic sum: head rank
  // frequencies match k^-s / H(n, s), and no draw leaves [1, n].
  ZipfDistribution zipf(500, 1.1);
  Rng rng(3);
  constexpr int kDraws = 200'000;
  std::vector<int> counts(501, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto k = zipf.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 500u);
    ++counts[k];
  }
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws,
                zipf_pmf(500, 1.1, k), 0.01)
        << "rank " << k;
  }
}

TEST(Zipf, RankOneMostPopular) {
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(5);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfDistribution zipf(4, 0.0);
  Rng rng(4);
  constexpr int kDraws = 100'000;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 1; k <= 4; ++k)
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, 0.25, 0.01);
}

class ZipfRangeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZipfRangeTest, SamplesStayInRange) {
  const std::size_t n = GetParam();
  ZipfDistribution zipf(n, 0.9);
  Rng rng(n);
  for (int i = 0; i < 5'000; ++i) {
    const auto k = zipf.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfRangeTest,
                         ::testing::Values(1, 2, 10, 1000, 50'000));

TEST(Zipf, CappedTableKeepsHeadMassExact) {
  // A capped table (megasite catalogues) must agree with the exact O(n)
  // table on every tabled rank — head draws and the head/tail split are
  // exact by contract; only the within-tail shape is approximated.
  constexpr std::size_t kN = 100'000;
  constexpr std::size_t kCap = 64;
  ZipfDistribution exact(kN, 1.1);
  ZipfDistribution capped(kN, 1.1, kCap);
  EXPECT_EQ(exact.table_size(), kN);
  EXPECT_EQ(capped.table_size(), kCap);
  EXPECT_EQ(capped.size(), kN);
  // Same uniform draws: whenever either lands in the head, both land on
  // the same rank.
  Rng a(21);
  Rng b(21);
  int head = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto k_exact = exact.sample(a);
    const auto k_capped = capped.sample(b);
    if (k_exact <= kCap || k_capped <= kCap) {
      ASSERT_EQ(k_capped, k_exact) << "draw " << i;
      ++head;
    }
  }
  EXPECT_GT(head, 10'000);
}

TEST(Zipf, CappedPmfSumsToOne) {
  // Total mass is preserved: the tail takes exactly what the head leaves.
  constexpr std::size_t kN = 20'000;
  constexpr std::size_t kCap = 128;
  ZipfDistribution capped(kN, 1.05, kCap);
  Rng rng(5);
  constexpr int kDraws = 100'000;
  int tail = 0;
  for (int i = 0; i < kDraws; ++i) tail += capped.sample(rng) > kCap;
  EXPECT_NEAR(static_cast<double>(tail) / kDraws,
              1.0 - zipf_mass(kN, 1.05, 1, kCap), 0.01);
}

TEST(Zipf, CappedSamplesCoverHeadAndTailInRange) {
  constexpr std::size_t kN = 50'000;
  constexpr std::size_t kCap = 32;
  ZipfDistribution capped(kN, 1.1, kCap);
  Rng rng(77);
  int head = 0;
  int tail = 0;
  for (int i = 0; i < 50'000; ++i) {
    const auto k = capped.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, kN);
    (k <= kCap ? head : tail) += 1;
  }
  // Both regimes of the sampler must actually be exercised, and the
  // head/tail split must match the exact tabled head mass.
  EXPECT_GT(head, 1'000);
  EXPECT_GT(tail, 1'000);
  EXPECT_NEAR(static_cast<double>(head) / (head + tail),
              zipf_mass(kN, 1.1, 1, kCap), 0.01);
}

TEST(Zipf, CappedHeadFrequenciesMatchPmf) {
  constexpr std::size_t kN = 10'000;
  constexpr std::size_t kCap = 16;
  ZipfDistribution capped(kN, 1.2, kCap);
  Rng rng(99);
  constexpr int kDraws = 200'000;
  std::vector<int> counts(kCap + 1, 0);
  int tail = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto k = capped.sample(rng);
    if (k <= kCap) {
      ++counts[k];
    } else {
      ++tail;
    }
  }
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws,
                zipf_pmf(kN, 1.2, k), 0.01)
        << "rank " << k;
  }
  EXPECT_NEAR(static_cast<double>(tail) / kDraws,
              zipf_mass(kN, 1.2, kCap + 1, kN), 0.01);
}

TEST(Zipf, CapAtOrAboveNIsExact) {
  ZipfDistribution uncapped(100, 0.9);
  ZipfDistribution capped(100, 0.9, 500);
  EXPECT_EQ(capped.table_size(), 100u);
  Rng a(11);
  Rng b(11);
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_EQ(capped.sample(a), uncapped.sample(b));
  }
}

TEST(LogNormal, MedianMatches) {
  LogNormalDistribution dist(12.0, 0.9);
  Rng rng(47);
  std::vector<double> samples(50'001);
  for (auto& s : samples) s = dist.sample(rng);
  std::nth_element(samples.begin(), samples.begin() + 25'000, samples.end());
  EXPECT_NEAR(samples[25'000], 12.0, 0.4);
}

}  // namespace
