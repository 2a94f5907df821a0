// Online descriptive statistics (Welford's algorithm) for the benches' and
// examples' summaries.
#pragma once

#include <cstddef>
#include <cstdint>

namespace divscrape::stats {

/// Numerically stable online mean/variance/min/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of the observed values; 0 when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Unbiased sample variance; 0 when fewer than 2 observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  [[nodiscard]] double cv() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel-merge identity:
  /// merging shards equals accumulating the concatenated stream).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace divscrape::stats
