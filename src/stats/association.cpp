#include "stats/association.hpp"

#include <cmath>

namespace divscrape::stats {

namespace {

double as_d(std::uint64_t v) noexcept { return static_cast<double>(v); }

/// Upper-tail probability of a chi-square distribution with 1 d.o.f.
double chi_square1_sf(double x) noexcept {
  if (x <= 0.0) return 1.0;
  // For 1 d.o.f., P(X > x) = erfc(sqrt(x/2)).
  return std::erfc(std::sqrt(x / 2.0));
}

}  // namespace

double q_statistic(const PairedCounts& pc) noexcept {
  const double ad = as_d(pc.both) * as_d(pc.neither);
  const double bc = as_d(pc.only_first) * as_d(pc.only_second);
  const double denom = ad + bc;
  return denom == 0.0 ? 0.0 : (ad - bc) / denom;
}

double phi_coefficient(const PairedCounts& pc) noexcept {
  const double a = as_d(pc.both);
  const double b = as_d(pc.only_first);
  const double c = as_d(pc.only_second);
  const double d = as_d(pc.neither);
  const double denom =
      std::sqrt((a + b) * (c + d) * (a + c) * (b + d));
  return denom == 0.0 ? 0.0 : (a * d - b * c) / denom;
}

double disagreement(const PairedCounts& pc) noexcept {
  const auto n = pc.total();
  return n == 0 ? 0.0 : (as_d(pc.only_first) + as_d(pc.only_second)) / as_d(n);
}

double cohens_kappa(const PairedCounts& pc) noexcept {
  const auto n = pc.total();
  if (n == 0) return 0.0;
  const double nd = as_d(n);
  const double po = (as_d(pc.both) + as_d(pc.neither)) / nd;
  const double p_a = (as_d(pc.both) + as_d(pc.only_first)) / nd;
  const double p_b = (as_d(pc.both) + as_d(pc.only_second)) / nd;
  const double pe = p_a * p_b + (1.0 - p_a) * (1.0 - p_b);
  return pe == 1.0 ? 0.0 : (po - pe) / (1.0 - pe);
}

McNemarResult mcnemar_test(const PairedCounts& pc) noexcept {
  McNemarResult r;
  r.discordant = pc.only_first + pc.only_second;
  if (r.discordant == 0) return r;
  const double b = as_d(pc.only_first);
  const double c = as_d(pc.only_second);
  const double num = std::abs(b - c) - 1.0;  // Edwards continuity correction
  const double corrected = num < 0.0 ? 0.0 : num;
  r.statistic = corrected * corrected / (b + c);
  r.p_value = chi_square1_sf(r.statistic);
  return r;
}

double double_fault(const PairedCounts& fault_counts) noexcept {
  const auto n = fault_counts.total();
  return n == 0 ? 0.0 : as_d(fault_counts.both) / as_d(n);
}

}  // namespace divscrape::stats
