// AlertJoiner: runs a detector pool over a record stream and accumulates
// every analysis the reproduction needs in one pass —
//
//   * per-detector alert totals                       (Table 1)
//   * all pairwise contingency tables                 (Table 2, E7)
//   * per-detector alerted-status breakdowns          (Table 3)
//   * unique-alert status breakdowns for the pair     (Table 4)
//   * per-detector confusion matrices vs ground truth (E5)
//   * per-detector alert-reason counters, total and unique-only (E9)
//   * k-out-of-N adjudicated confusion matrices       (E5)
//
// The joiner is deliberately single-pass and streaming: the paper-scale
// stream is 1.47M records and detectors are stateful, so everything that
// can be answered from the joint verdict vector is folded immediately.
#pragma once

#include <cstdint>
#include <memory>
#include "util/span.hpp"
#include <string>
#include <vector>

#include "core/confusion.hpp"
#include "core/contingency.hpp"
#include "detectors/detector.hpp"
#include "stats/counter.hpp"

namespace divscrape::core {

/// Accumulated results of a joint run. Index order follows the detector
/// pool passed to AlertJoiner.
class JointResults {
 public:
  explicit JointResults(std::vector<std::string> names);

  [[nodiscard]] std::size_t detector_count() const noexcept {
    return names_.size();
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] std::uint64_t total_requests() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t alerts(std::size_t detector) const {
    return alert_totals_.at(detector);
  }
  /// Pairwise contingency table (i < j in pool order).
  [[nodiscard]] const ContingencyTable& pair(std::size_t i,
                                             std::size_t j) const;
  /// Pairwise *fault* table (i < j): cells count simultaneous
  /// correctness/incorrectness vs ground truth instead of alerts. The
  /// "both" cell is the classical double-fault mass: requests where both
  /// detectors were wrong at once — the quantity redundancy cannot fix.
  /// Records with unknown truth are excluded.
  [[nodiscard]] const ContingencyTable& fault_pair(std::size_t i,
                                                   std::size_t j) const;
  /// Alerted-request status counter for one detector (Table 3 column).
  [[nodiscard]] const stats::Counter<int>& alerted_status(
      std::size_t detector) const {
    return alerted_status_.at(detector);
  }
  /// Status counter over requests alerted by `detector` and by no other
  /// pool member (Table 4 column).
  [[nodiscard]] const stats::Counter<int>& unique_alert_status(
      std::size_t detector) const {
    return unique_status_.at(detector);
  }
  /// Status counter over all requests (alerted or not).
  [[nodiscard]] const stats::Counter<int>& all_status() const noexcept {
    return all_status_;
  }
  [[nodiscard]] const ConfusionMatrix& confusion(std::size_t detector) const {
    return confusion_.at(detector);
  }
  /// Confusion of the "alert when >= k of the N detectors alert" rule.
  [[nodiscard]] const ConfusionMatrix& k_of_n_confusion(std::size_t k) const {
    return adjudicated_.at(k - 1);
  }
  /// Alert-reason counts for one detector.
  [[nodiscard]] const stats::Counter<std::string>& reasons(
      std::size_t detector) const {
    return reasons_.at(detector);
  }
  /// Alert-reason counts restricted to that detector's unique alerts.
  [[nodiscard]] const stats::Counter<std::string>& unique_reasons(
      std::size_t detector) const {
    return unique_reasons_.at(detector);
  }
  /// Truth composition of the stream (kBenign / kMalicious counts).
  [[nodiscard]] std::uint64_t truth_count(httplog::Truth t) const;

  /// Folds one joint verdict vector in.
  void observe(const httplog::LogRecord& record,
               divscrape::span<const detectors::Verdict> verdicts);

  /// Merges a shard's results (same pool order required).
  void merge(const JointResults& other);

  /// Dump/restore of every accumulated counter (warm checkpointing). Load
  /// validates the blob's detector-name vector against this instance's pool
  /// order and fails — leaving the results zeroed — on any mismatch.
  void save_state(util::StateWriter& w) const;
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  [[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j) const;

  std::vector<std::string> names_;
  std::uint64_t total_ = 0;
  std::uint64_t truth_benign_ = 0;
  std::uint64_t truth_malicious_ = 0;
  std::vector<std::uint64_t> alert_totals_;
  std::vector<ContingencyTable> pairs_;  ///< upper-triangular, row-major
  std::vector<ContingencyTable> fault_pairs_;  ///< same layout, vs truth
  std::vector<stats::Counter<int>> alerted_status_;
  std::vector<stats::Counter<int>> unique_status_;
  stats::Counter<int> all_status_;
  std::vector<ConfusionMatrix> confusion_;
  std::vector<ConfusionMatrix> adjudicated_;  ///< index k-1
  std::vector<stats::Counter<std::string>> reasons_;
  std::vector<stats::Counter<std::string>> unique_reasons_;
};

/// Runs a pool of detectors over records one at a time.
class AlertJoiner {
 public:
  /// Non-owning view of the pool; detectors must outlive the joiner.
  explicit AlertJoiner(divscrape::span<detectors::Detector* const> pool);
  /// Convenience overload for owning pools.
  explicit AlertJoiner(
      const std::vector<std::unique_ptr<detectors::Detector>>& pool);

  /// Evaluates every detector on the record and folds the joint verdict
  /// into the results. Returns the verdict vector (valid until next call).
  divscrape::span<const detectors::Verdict> process(
      const httplog::LogRecord& record);

  [[nodiscard]] const JointResults& results() const noexcept {
    return results_;
  }

  /// Dumps the joiner's warm state: each pool detector's state (by name,
  /// length-prefixed) plus the accumulated results. Returns false without
  /// writing anything if any pool member does not support serialization.
  [[nodiscard]] bool save_state(util::StateWriter& w) const;
  /// Restores from save_state() output. On a name/count mismatch or a
  /// corrupted blob the joiner is reset cold and false is returned.
  [[nodiscard]] bool load_state(util::StateReader& r);
  /// Fresh deployment: resets every pool detector and zeroes the results.
  void reset();

 private:
  std::vector<detectors::Detector*> pool_;
  std::vector<detectors::Verdict> scratch_;
  JointResults results_;
};

}  // namespace divscrape::core
