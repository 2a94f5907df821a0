#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace divscrape::stats {

ZipfDistribution::ZipfDistribution(std::size_t n, double s,
                                   std::size_t table_cap)
    : n_(n), s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be >= 1");
  if (s < 0.0) throw std::invalid_argument("ZipfDistribution: s must be >= 0");
  const std::size_t tabled = (table_cap == 0 || table_cap >= n) ? n : table_cap;
  cdf_.resize(tabled);
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    if (k <= tabled) cdf_[k - 1] = total;
  }
  total_ = total;
  for (auto& c : cdf_) c /= total;
  if (tabled == n) cdf_.back() = 1.0;  // guard against accumulated rounding
}

std::size_t ZipfDistribution::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  if (cdf_.size() == n_ || u <= cdf_.back()) {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()) + 1, n_);
  }
  // Tail of a capped table: continuous power-law inverse transform over
  // [cap+1, n+1), rank = floor(x). Exact head/tail split, approximate
  // within-tail shape.
  const double head = cdf_.back();
  const double v = (u - head) / (1.0 - head);  // in (0, 1]
  const double a = static_cast<double>(cdf_.size()) + 1.0;
  const double b = static_cast<double>(n_) + 1.0;
  double x;
  if (s_ == 1.0) {
    x = a * std::pow(b / a, v);
  } else {
    const double p = 1.0 - s_;
    x = std::pow(std::pow(a, p) + v * (std::pow(b, p) - std::pow(a, p)),
                 1.0 / p);
  }
  const auto rank = static_cast<std::size_t>(x);
  return std::min(std::max<std::size_t>(rank, cdf_.size() + 1), n_);
}

double ZipfDistribution::pmf(std::size_t k) const noexcept {
  if (k < 1 || k > n_) return 0.0;
  if (k <= cdf_.size()) {
    const double lo = k == 1 ? 0.0 : cdf_[k - 2];
    return cdf_[k - 1] - lo;
  }
  return std::pow(static_cast<double>(k), -s_) / total_;
}

LogNormalDistribution::LogNormalDistribution(double median,
                                             double sigma) noexcept
    : mu_(std::log(median)), sigma_(sigma) {}

double LogNormalDistribution::sample(Rng& rng) const noexcept {
  return rng.lognormal(mu_, sigma_);
}

double LogNormalDistribution::median() const noexcept {
  return std::exp(mu_);
}

}  // namespace divscrape::stats
