// Confidence intervals for proportions. Sensitivity/specificity in
// EXPERIMENTS.md are reported with Wilson-score intervals so that shape
// comparisons against the paper aren't over-read from a single run.
#pragma once

#include <cstdint>

namespace divscrape::stats {

/// A two-sided confidence interval for a proportion.
struct ProportionInterval {
  double point = 0.0;  ///< observed proportion successes/trials
  double lo = 0.0;
  double hi = 0.0;
};

/// Wilson score interval. `z` defaults to 1.96 (95%). Well-behaved for
/// proportions near 0/1 and small n, unlike the Wald (normal-approximation)
/// interval, which collapses to zero width there.
/// Returns {0,0,0} when trials == 0.
[[nodiscard]] ProportionInterval wilson_interval(std::uint64_t successes,
                                                 std::uint64_t trials,
                                                 double z = 1.96) noexcept;

}  // namespace divscrape::stats
