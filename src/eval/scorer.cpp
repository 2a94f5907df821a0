#include "eval/scorer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/json.hpp"
#include "util/atomic_file.hpp"

namespace divscrape::eval {

namespace {

constexpr std::string_view kEnsembleName = "ensemble_1oo2";

double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

void write_column(core::JsonWriter& json, const ColumnScore& column) {
  json.begin_object();
  json.key("name").value(column.name);
  json.key("tp").value(column.tp);
  json.key("fp").value(column.fp);
  json.key("tn").value(column.tn);
  json.key("fn").value(column.fn);
  // Derived rates are emitted for human and CI readability; the counts
  // are authoritative.
  json.key("precision").value_exact(column.precision());
  json.key("recall").value_exact(column.recall());
  json.key("f1").value_exact(column.f1());
  json.key("auc").value_exact(column.auc);
  json.key("actors_detected").value(column.actors_detected);
  json.key("actors_unique").value(column.actors_unique);
  json.key("ttd_mean_s").value_exact(column.ttd_mean_s);
  json.key("ttd_p50_s").value_exact(column.ttd_p50_s);
  json.key("ttd_p90_s").value_exact(column.ttd_p90_s);
  json.key("unique_reasons").begin_array();
  for (const auto& reason : column.unique_reasons) {
    json.begin_object();
    json.key("reason").value(reason.reason);
    json.key("count").value(reason.count);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

const ColumnScore* ScenarioScore::column(std::string_view name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const ScenarioScore* DetectionDocument::scenario(std::string_view name) const {
  for (const auto& s : scenarios) {
    if (s.scenario == name) return &s;
  }
  return nullptr;
}

std::string DetectionDocument::to_json() const {
  std::string out;
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kSchema);
  json.key("bench").value(bench);
  json.key("scenarios").begin_array();
  for (const auto& score : scenarios) {
    json.begin_object();
    json.key("scenario").value(score.scenario);
    json.key("scale").value_exact(score.scale);
    json.key("records").value(score.records);
    json.key("truth_benign").value(score.truth_benign);
    json.key("truth_malicious").value(score.truth_malicious);
    json.key("actors_attacking").value(score.actors_attacking);
    json.key("columns").begin_array();
    for (const auto& column : score.columns) write_column(json, column);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return out;
}

bool DetectionDocument::save(const std::string& path) const {
  return util::write_file_atomic(path, to_json() + "\n");
}

std::vector<RocPoint> roc_curve(divscrape::span<const double> scores,
                                divscrape::span<const int> labels) {
  const std::size_t n = std::min(scores.size(), labels.size());
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  std::uint64_t total_pos = 0;
  for (std::size_t i = 0; i < n; ++i)
    total_pos += static_cast<std::uint64_t>(labels[i] != 0);
  const std::uint64_t total_neg = n - total_pos;

  std::vector<RocPoint> curve;
  curve.push_back({1.0 + 1e-9, 0.0, 0.0});
  std::uint64_t tp = 0, fp = 0;
  std::size_t i = 0;
  while (i < n) {
    const double t = scores[order[i]];
    // Consume all samples tied at this threshold together.
    while (i < n && scores[order[i]] == t) {
      labels[order[i]] != 0 ? ++tp : ++fp;
      ++i;
    }
    curve.push_back({t, ratio(tp, total_pos), ratio(fp, total_neg)});
  }
  return curve;
}

double auc(divscrape::span<const double> scores, divscrape::span<const int> labels) {
  const auto curve = roc_curve(scores, labels);
  double area = 0.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double dx = curve[i].fpr - curve[i - 1].fpr;
    area += dx * 0.5 * (curve[i].tpr + curve[i - 1].tpr);
  }
  return area;
}

Scorer::Scorer(std::vector<std::string> detector_names)
    : names_(std::move(detector_names)), columns_(names_.size() + 1) {
  if (names_.empty())
    throw std::invalid_argument("Scorer needs at least one detector");
}

void Scorer::observe(const httplog::LogRecord& record,
                     divscrape::span<const detectors::Verdict> verdicts) {
  if (verdicts.size() != names_.size())
    throw std::invalid_argument("verdict count does not match detector pool");
  // Unknown-truth records carry no signal for any metric here; skipping
  // them matches the seed benches and core::ConfusionMatrix.
  if (record.truth == httplog::Truth::kUnknown) return;
  const bool malicious = record.truth == httplog::Truth::kMalicious;
  (malicious ? truth_malicious_ : truth_benign_) += 1;
  labels_.push_back(malicious ? 1 : 0);
  if (malicious &&
      first_seen_us_.emplace(record.actor_id, record.time.micros()).second) {
    ++actors_attacking_;
  }

  const std::size_t n = names_.size();
  bool any_alert = false;
  double max_score = 0.0;
  std::size_t alerting = 0, last_alerter = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (verdicts[i].alert) {
      any_alert = true;
      ++alerting;
      last_alerter = i;
    }
    max_score = std::max(max_score, verdicts[i].score);
  }

  const auto fold = [&](Column& column, bool alert, double score) {
    if (malicious) {
      alert ? ++column.tp : ++column.fn;
    } else {
      alert ? ++column.fp : ++column.tn;
    }
    column.scores.push_back(score);
    if (alert && malicious)
      column.first_alert_us.emplace(record.actor_id, record.time.micros());
  };
  for (std::size_t i = 0; i < n; ++i)
    fold(columns_[i], verdicts[i].alert, verdicts[i].score);
  fold(columns_[n], any_alert, max_score);

  // E9 attribution: a unique alert is one exactly one tool raised.
  if (alerting == 1 && malicious) {
    const auto reason = detectors::to_string(verdicts[last_alerter].reason);
    columns_[last_alerter].unique_reasons[std::string(reason)] += 1;
  }
}

ScenarioScore Scorer::finish(std::string scenario_name, double scale) const {
  ScenarioScore out;
  out.scenario = std::move(scenario_name);
  out.scale = scale;
  out.records = records_scored();
  out.truth_benign = truth_benign_;
  out.truth_malicious = truth_malicious_;
  out.actors_attacking = actors_attacking_;

  const std::size_t n = names_.size();
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const Column& column = columns_[c];
    ColumnScore score;
    score.name = c < n ? names_[c] : std::string(kEnsembleName);
    score.tp = column.tp;
    score.fp = column.fp;
    score.tn = column.tn;
    score.fn = column.fn;
    score.auc = auc(column.scores, labels_);
    score.actors_detected = column.first_alert_us.size();
    if (c < n) {
      for (const auto& [actor, when] : column.first_alert_us) {
        (void)when;
        bool elsewhere = false;
        for (std::size_t other = 0; other < n && !elsewhere; ++other) {
          elsewhere = other != c &&
                      columns_[other].first_alert_us.count(actor) != 0;
        }
        if (!elsewhere) ++score.actors_unique;
      }
    }

    std::vector<double> ttd;
    ttd.reserve(column.first_alert_us.size());
    double sum = 0.0;
    for (const auto& [actor, alert_us] : column.first_alert_us) {
      const auto seen = first_seen_us_.find(actor);
      if (seen == first_seen_us_.end()) continue;
      const double s =
          static_cast<double>(alert_us - seen->second) / 1e6;
      ttd.push_back(s);
      sum += s;
    }
    std::sort(ttd.begin(), ttd.end());
    if (!ttd.empty()) {
      score.ttd_mean_s = sum / static_cast<double>(ttd.size());
      score.ttd_p50_s = percentile(ttd, 0.5);
      score.ttd_p90_s = percentile(ttd, 0.9);
    }

    score.unique_reasons.reserve(column.unique_reasons.size());
    for (const auto& [reason, count] : column.unique_reasons)
      score.unique_reasons.push_back({reason, count});
    std::sort(score.unique_reasons.begin(), score.unique_reasons.end(),
              [](const ReasonCount& a, const ReasonCount& b) {
                return a.count != b.count ? a.count > b.count
                                          : a.reason < b.reason;
              });
    out.columns.push_back(std::move(score));
  }
  return out;
}

}  // namespace divscrape::eval
