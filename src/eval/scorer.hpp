// Detection-quality evaluation: the scoring engine behind BENCH_detection.
//
// eval::Scorer consumes a replayed run one record at a time — ground truth
// from the LogRecord sidecars plus the per-detector verdict vector an
// AlertJoiner (or any caller of Detector::evaluate) produced — and folds
// everything the red-vs-blue report needs in a single streaming pass:
//
//   * per-detector confusion at the operating point (precision/recall/F1)
//   * ROC/AUC via a threshold sweep over the graded suspicion scores
//   * time-to-detect: first true alert per attacking actor, measured from
//     that actor's first record
//   * unique-alert-cause attribution: which mechanism caught what the
//     other tool missed (per-reason, on truth-malicious records)
//   * the 1oo2 ensemble as an extra scored column (alert = any detector
//     alerts; score = max), the paper's diversity argument made measurable
//
// Records with unknown truth are excluded from every metric, matching the
// seed benches. The output is a ScenarioScore per run; a set of runs
// serializes as the versioned `divscrape.bench_detection.v1` document
// (DetectionDocument), the detection-quality counterpart to the perfbench/
// benchmark: future perf PRs are gated on "didn't get worse at detecting"
// via its committed floors. The document is write-only: nothing in the
// repository loads it back (CI checks it with an independent parser).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "detectors/detector.hpp"
#include "httplog/record.hpp"
#include "util/span.hpp"

namespace divscrape::eval {

/// One alert-reason tally of a detector's unique (single-tool) alerts.
struct ReasonCount {
  std::string reason;
  std::uint64_t count = 0;
};

/// The scored outcome of one detector column (or the ensemble) over one
/// scenario run. Derived rates are computed from the counts, not stored,
/// so they can never disagree with them.
struct ColumnScore {
  std::string name;  ///< "sentinel", "arcane", ..., or "ensemble_1oo2"

  // Operating-point confusion over truth-known records.
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  /// Area under the ROC curve from the graded suspicion scores (E8).
  double auc = 0.0;

  // Actor-granularity detection: an attacking actor counts as detected
  // once this column raises a true alert on any of its records.
  std::uint64_t actors_detected = 0;
  /// Attacking actors this column alone detected (no other detector
  /// column caught them anywhere in the run). Zero for the ensemble.
  std::uint64_t actors_unique = 0;

  // Time-to-detect over detected actors, in seconds from the actor's
  // first record to its first true alert. Zero when none were detected.
  double ttd_mean_s = 0.0;
  double ttd_p50_s = 0.0;
  double ttd_p90_s = 0.0;

  /// Reasons of this column's unique alerts on truth-malicious records
  /// (E9 attribution), sorted by descending count. Empty for the ensemble.
  std::vector<ReasonCount> unique_reasons;

  [[nodiscard]] double precision() const noexcept {
    const auto d = tp + fp;
    return d == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(d);
  }
  [[nodiscard]] double recall() const noexcept {
    const auto d = tp + fn;
    return d == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(d);
  }
  [[nodiscard]] double f1() const noexcept {
    const double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

/// Everything BENCH_detection records about one scenario run: the stream
/// composition plus one ColumnScore per detector and one for the ensemble
/// (always last, named "ensemble_1oo2").
struct ScenarioScore {
  std::string scenario;
  double scale = 1.0;
  std::uint64_t records = 0;  ///< truth-known records scored
  std::uint64_t truth_benign = 0;
  std::uint64_t truth_malicious = 0;
  std::uint64_t actors_attacking = 0;  ///< distinct truth-malicious actors
  std::vector<ColumnScore> columns;

  /// Column lookup by name; nullptr when absent.
  [[nodiscard]] const ColumnScore* column(std::string_view name) const;
};

/// The versioned machine-readable detection-quality document
/// (schema divscrape.bench_detection.v1) — BENCH_detection.json.
struct DetectionDocument {
  static constexpr std::string_view kSchema = "divscrape.bench_detection.v1";

  std::string bench = "bench_detection";
  std::vector<ScenarioScore> scenarios;

  [[nodiscard]] const ScenarioScore* scenario(std::string_view name) const;

  [[nodiscard]] std::string to_json() const;
  /// Atomic write of to_json() plus a newline.
  [[nodiscard]] bool save(const std::string& path) const;
};

/// One ROC point.
struct RocPoint {
  double threshold = 0.0;
  double tpr = 0.0;
  double fpr = 0.0;
};

/// ROC curve from scores; points are sorted by descending threshold.
[[nodiscard]] std::vector<RocPoint> roc_curve(divscrape::span<const double> scores,
                                              divscrape::span<const int> labels);

/// Area under the ROC curve via the rank statistic (handles ties).
[[nodiscard]] double auc(divscrape::span<const double> scores,
                         divscrape::span<const int> labels);

/// Streaming scorer for one scenario run. Feed every record (in time
/// order) together with the verdict vector the detector pool produced for
/// it; call finish() once at the end.
class Scorer {
 public:
  /// `detector_names` in pool order; the 1oo2 ensemble column is derived
  /// automatically and appended as "ensemble_1oo2".
  explicit Scorer(std::vector<std::string> detector_names);

  /// Folds one record's joint verdict in. `verdicts.size()` must equal the
  /// detector-name count (the ensemble is computed here, not supplied).
  void observe(const httplog::LogRecord& record,
               divscrape::span<const detectors::Verdict> verdicts);

  [[nodiscard]] std::uint64_t records_scored() const noexcept {
    return truth_benign_ + truth_malicious_;
  }

  /// Computes the final per-column metrics. The scorer stays valid (more
  /// observe() calls may follow; finish() may be called again).
  [[nodiscard]] ScenarioScore finish(std::string scenario_name,
                                     double scale) const;

 private:
  struct Column {
    std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
    std::vector<double> scores;  ///< truth-known records, observe order
    /// actor id -> micros of the first true alert on that actor.
    std::unordered_map<std::uint32_t, std::int64_t> first_alert_us;
    /// Reason tallies of unique alerts on truth-malicious records
    /// (real detector columns only).
    std::unordered_map<std::string, std::uint64_t> unique_reasons;
  };

  std::vector<std::string> names_;
  std::vector<Column> columns_;  ///< detectors..., then the ensemble
  std::vector<int> labels_;      ///< 1 = malicious, per scored record
  std::uint64_t truth_benign_ = 0;
  std::uint64_t truth_malicious_ = 0;
  /// actor id -> micros of the actor's first (any-truth) record.
  std::unordered_map<std::uint32_t, std::int64_t> first_seen_us_;
  std::uint64_t actors_attacking_ = 0;
};

}  // namespace divscrape::eval
