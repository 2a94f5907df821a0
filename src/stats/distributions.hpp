// Heavy-tailed and categorical distributions used by the traffic simulator.
//
// Web workloads are famously heavy-tailed: page popularity follows a Zipf
// law, session lengths and transfer sizes are Pareto/log-normal, and think
// times are log-normal. These small value types wrap the sampling logic so
// actor models read declaratively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace divscrape::stats {

/// Zipf(s, n): ranks 1..n with P(k) proportional to k^-s.
///
/// Sampling is by inverse transform over the precomputed CDF (O(log n) per
/// draw), which is exact and fast enough for catalogue sizes up to millions.
///
/// For populations where an O(n) table is too much memory (megasite
/// catalogues), pass `table_cap > 0`: the CDF table is truncated to the
/// first `table_cap` ranks (exact head, which carries almost all the mass
/// under a Zipf law) and tail ranks are drawn by a continuous power-law
/// inverse transform over [cap+1, n+1). The tail draw is a documented
/// approximation of the discrete law; head draws and the head/tail split
/// remain exact, total mass is preserved, and memory is O(table_cap)
/// regardless of n. `table_cap == 0` (the default) keeps the exact O(n)
/// table and is bit-compatible with the historical behaviour.
class ZipfDistribution {
 public:
  /// `n` must be >= 1; `s` >= 0 (s == 0 degenerates to uniform ranks).
  ZipfDistribution(std::size_t n, double s, std::size_t table_cap = 0);

  /// Returns a rank in [1, n]. Consumes exactly one uniform draw.
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double exponent() const noexcept { return s_; }
  /// Number of ranks with an exact CDF entry (== size() when uncapped).
  [[nodiscard]] std::size_t table_size() const noexcept { return cdf_.size(); }

  /// Probability mass of rank k (1-based). Exact for tabled ranks; for
  /// capped tail ranks this is the true Zipf mass k^-s / H(n, s), which the
  /// continuous tail sampler only approximates rank-by-rank.
  [[nodiscard]] double pmf(std::size_t k) const noexcept;

 private:
  std::vector<double> cdf_;
  std::size_t n_;
  double s_;
  double total_;  // full harmonic normalizer H(n, s)
};

/// Log-normal parameterized by the *target* median and a shape sigma, which
/// is how think-time literature usually reports it.
class LogNormalDistribution {
 public:
  /// `median` > 0; `sigma` >= 0 is the stddev of the underlying normal.
  LogNormalDistribution(double median, double sigma) noexcept;

  [[nodiscard]] double sample(Rng& rng) const noexcept;
  [[nodiscard]] double median() const noexcept;
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  double mu_;  // log(median)
  double sigma_;
};

}  // namespace divscrape::stats
