// Confusion-matrix evaluation against ground truth — the analysis the
// paper's Section V says labelled data will enable (sensitivity and
// specificity per tool and per adjudication scheme).
#pragma once

#include <cstdint>

#include "httplog/record.hpp"
#include "stats/intervals.hpp"
#include "util/state.hpp"

namespace divscrape::core {

/// Binary confusion counts with rate accessors and Wilson intervals.
struct ConfusionMatrix {
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;

  /// Folds one (truth, alert) observation in. Unknown truth is skipped.
  void observe(httplog::Truth truth, bool alert) noexcept;
  void merge(const ConfusionMatrix& other) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return tp + fp + tn + fn;
  }
  /// Sensitivity (recall, TPR): alerted fraction of malicious requests.
  [[nodiscard]] double sensitivity() const noexcept;
  /// Specificity (TNR): silent fraction of benign requests.
  [[nodiscard]] double specificity() const noexcept;
  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double f1() const noexcept;

  [[nodiscard]] stats::ProportionInterval sensitivity_ci(
      double z = 1.96) const noexcept;
  [[nodiscard]] stats::ProportionInterval specificity_ci(
      double z = 1.96) const noexcept;

  void save_state(util::StateWriter& w) const {
    w.u64(tp);
    w.u64(fp);
    w.u64(tn);
    w.u64(fn);
  }
  [[nodiscard]] bool load_state(util::StateReader& r) {
    tp = r.u64();
    fp = r.u64();
    tn = r.u64();
    fn = r.u64();
    return r.ok();
  }
};

}  // namespace divscrape::core
