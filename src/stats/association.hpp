// Association measures between two binary raters (here: two detectors
// judging the same request stream). These are the classical diversity
// measures from the N-version-programming / classifier-ensemble literature
// that the paper's research programme builds on (Littlewood & Strigini,
// "Redundancy and diversity in security").
//
// All functions take the 2x2 joint counts:
//
//              B alerts   B silent
//   A alerts      a           b
//   A silent      c           d
#pragma once

#include <cstdint>

namespace divscrape::stats {

/// Joint alert counts of two binary detectors over the same stream.
struct PairedCounts {
  std::uint64_t both = 0;        ///< a: alerted by both
  std::uint64_t only_first = 0;  ///< b: alerted by A only
  std::uint64_t only_second = 0; ///< c: alerted by B only
  std::uint64_t neither = 0;     ///< d: alerted by neither

  [[nodiscard]] std::uint64_t total() const noexcept {
    return both + only_first + only_second + neither;
  }
};

/// Yule's Q statistic in [-1, 1]: (ad - bc) / (ad + bc).
/// Q = 1 means perfectly correlated alerting; Q near 0 or negative means
/// diverse detectors — the property the paper is probing for.
/// Returns 0 when ad + bc == 0 (degenerate table).
[[nodiscard]] double q_statistic(const PairedCounts& pc) noexcept;

/// Phi (Pearson) correlation of the two binary indicators, in [-1, 1].
/// Returns 0 for degenerate margins.
[[nodiscard]] double phi_coefficient(const PairedCounts& pc) noexcept;

/// Disagreement measure: fraction of requests on which exactly one detector
/// alerts, (b + c) / n. This is exactly Table 2's "only one" mass as a rate.
[[nodiscard]] double disagreement(const PairedCounts& pc) noexcept;

/// Cohen's kappa: agreement beyond chance, in [-1, 1].
[[nodiscard]] double cohens_kappa(const PairedCounts& pc) noexcept;

/// Result of McNemar's test on the discordant cells (b vs c).
struct McNemarResult {
  double statistic = 0.0;     ///< continuity-corrected chi-square statistic
  double p_value = 1.0;       ///< asymptotic p (1 d.o.f. chi-square)
  std::uint64_t discordant = 0;
};

/// McNemar's test: are the two detectors' marginal alert rates different?
/// In the paper's data the b=43,648 vs c=9,305 asymmetry is the headline
/// observation; this quantifies it.
[[nodiscard]] McNemarResult mcnemar_test(const PairedCounts& pc) noexcept;

/// Double-fault measure over a *fault* table (cells = simultaneous
/// incorrectness): the fraction of cases where both raters were wrong at
/// once, both/n. The classical lower bound on what any 2-tool adjudication
/// scheme can still get wrong.
[[nodiscard]] double double_fault(const PairedCounts& fault_counts) noexcept;

}  // namespace divscrape::stats
