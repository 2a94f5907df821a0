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
// via its committed floors.
#pragma once

#include <cstdint>
#include <optional>
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

  friend bool operator==(const ReasonCount& a, const ReasonCount& b) {
    return a.reason == b.reason && a.count == b.count;
  }
};

/// The scored outcome of one detector column (or the ensemble) over one
/// scenario run. Derived rates are computed, not stored, so a round-tripped
/// document can never disagree with its own counts.
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

  friend bool operator==(const ColumnScore& a, const ColumnScore& b) {
    return a.name == b.name && a.tp == b.tp && a.fp == b.fp && a.tn == b.tn &&
           a.fn == b.fn && a.auc == b.auc &&
           a.actors_detected == b.actors_detected &&
           a.actors_unique == b.actors_unique &&
           a.ttd_mean_s == b.ttd_mean_s && a.ttd_p50_s == b.ttd_p50_s &&
           a.ttd_p90_s == b.ttd_p90_s && a.unique_reasons == b.unique_reasons;
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

  friend bool operator==(const ScenarioScore& a, const ScenarioScore& b) {
    return a.scenario == b.scenario && a.scale == b.scale &&
           a.records == b.records && a.truth_benign == b.truth_benign &&
           a.truth_malicious == b.truth_malicious &&
           a.actors_attacking == b.actors_attacking && a.columns == b.columns;
  }
};

/// The versioned machine-readable detection-quality document
/// (schema divscrape.bench_detection.v1) — BENCH_detection.json.
struct DetectionDocument {
  static constexpr std::string_view kSchema = "divscrape.bench_detection.v1";

  std::string bench = "bench_detection";
  std::vector<ScenarioScore> scenarios;

  [[nodiscard]] const ScenarioScore* scenario(std::string_view name) const;

  [[nodiscard]] std::string to_json() const;
  /// Parses and validates (schema string must match exactly); nullopt and
  /// a one-line reason on anything else.
  [[nodiscard]] static std::optional<DetectionDocument> from_json(
      std::string_view json, std::string* error = nullptr);

  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static std::optional<DetectionDocument> load(
      const std::string& path, std::string* error = nullptr);

  friend bool operator==(const DetectionDocument& a,
                         const DetectionDocument& b) {
    return a.bench == b.bench && a.scenarios == b.scenarios;
  }
};

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

  /// Raw per-record suspicion scores of one column (detectors in pool
  /// order, then the ensemble), aligned with labels() — the inputs of the
  /// ROC sweep, exposed so callers can print full curves (bench_roc).
  [[nodiscard]] divscrape::span<const double> column_scores(
      std::size_t column) const {
    return columns_.at(column).scores;
  }
  [[nodiscard]] divscrape::span<const int> labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return columns_.size();
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
