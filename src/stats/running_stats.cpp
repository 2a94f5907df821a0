#include "stats/running_stats.hpp"

#include <algorithm>
#include <cmath>

namespace divscrape::stats {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::reset() noexcept { *this = RunningStats{}; }

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::cv() const noexcept {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace divscrape::stats
