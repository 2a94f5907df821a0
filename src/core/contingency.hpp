// Pairwise alert-diversity accounting: the contingency breakdown of the
// paper's Table 2 and the diversity metrics of the ensemble literature.
#pragma once

#include <cstdint>
#include <string>

#include "stats/association.hpp"
#include "util/state.hpp"

namespace divscrape::core {

/// Streaming 2x2 contingency table over two detectors' verdicts.
class ContingencyTable {
 public:
  void observe(bool first_alert, bool second_alert) noexcept;
  void merge(const ContingencyTable& other) noexcept;

  [[nodiscard]] const stats::PairedCounts& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t both() const noexcept { return counts_.both; }
  [[nodiscard]] std::uint64_t neither() const noexcept {
    return counts_.neither;
  }
  /// "Distil only" in the paper's layout; second_only() is "Arcane only".
  [[nodiscard]] std::uint64_t first_only() const noexcept {
    return counts_.only_first;
  }
  [[nodiscard]] std::uint64_t second_only() const noexcept {
    return counts_.only_second;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return counts_.total();
  }
  [[nodiscard]] std::uint64_t first_total() const noexcept {
    return counts_.both + counts_.only_first;
  }
  [[nodiscard]] std::uint64_t second_total() const noexcept {
    return counts_.both + counts_.only_second;
  }

  void save_state(util::StateWriter& w) const {
    w.u64(counts_.both);
    w.u64(counts_.only_first);
    w.u64(counts_.only_second);
    w.u64(counts_.neither);
  }
  [[nodiscard]] bool load_state(util::StateReader& r) {
    counts_.both = r.u64();
    counts_.only_first = r.u64();
    counts_.only_second = r.u64();
    counts_.neither = r.u64();
    return r.ok();
  }

 private:
  stats::PairedCounts counts_;
};

/// The classical pairwise diversity measures, bundled for reports.
struct DiversityMetrics {
  double q_statistic = 0.0;   ///< Yule's Q in [-1, 1]
  double phi = 0.0;           ///< binary Pearson correlation
  double disagreement = 0.0;  ///< fraction judged by exactly one tool
  double kappa = 0.0;         ///< Cohen's kappa
  stats::McNemarResult mcnemar;

  [[nodiscard]] static DiversityMetrics from(
      const stats::PairedCounts& counts) noexcept;
};

}  // namespace divscrape::core
