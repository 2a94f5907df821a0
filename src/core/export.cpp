#include "core/export.hpp"

#include <set>

#include "core/contingency.hpp"
#include "core/json.hpp"

namespace divscrape::core {

namespace {

void write_confusion(JsonWriter& json, const ConfusionMatrix& cm) {
  json.begin_object();
  json.key("tp").value(cm.tp);
  json.key("fp").value(cm.fp);
  json.key("tn").value(cm.tn);
  json.key("fn").value(cm.fn);
  json.key("sensitivity").value(cm.sensitivity());
  json.key("specificity").value(cm.specificity());
  json.key("precision").value(cm.precision());
  json.key("f1").value(cm.f1());
  json.end_object();
}

void write_status_counter(JsonWriter& json,
                          const stats::Counter<int>& counter) {
  json.begin_object();
  for (const auto& [status, count] : counter.by_count()) {
    json.key(std::to_string(status)).value(count);
  }
  json.end_object();
}

}  // namespace

std::string to_json(const JointResults& results) {
  std::string out;
  JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("divscrape.joint_results.v1");
  json.key("total_requests").value(results.total_requests());
  json.key("truth").begin_object();
  json.key("benign").value(results.truth_count(httplog::Truth::kBenign));
  json.key("malicious")
      .value(results.truth_count(httplog::Truth::kMalicious));
  json.key("unknown").value(results.truth_count(httplog::Truth::kUnknown));
  json.end_object();

  json.key("detectors").begin_array();
  for (std::size_t d = 0; d < results.detector_count(); ++d) {
    json.begin_object();
    json.key("name").value(results.names()[d]);
    json.key("alerts").value(results.alerts(d));
    json.key("confusion");
    write_confusion(json, results.confusion(d));
    json.key("alerted_status");
    write_status_counter(json, results.alerted_status(d));
    json.key("unique_alert_status");
    write_status_counter(json, results.unique_alert_status(d));
    json.key("reasons").begin_object();
    for (const auto& [reason, count] : results.reasons(d).by_count()) {
      json.key(reason).value(count);
    }
    json.end_object();
    json.key("unique_reasons").begin_object();
    for (const auto& [reason, count] :
         results.unique_reasons(d).by_count()) {
      json.key(reason).value(count);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  json.key("pairs").begin_array();
  for (std::size_t i = 0; i < results.detector_count(); ++i) {
    for (std::size_t j = i + 1; j < results.detector_count(); ++j) {
      const auto& pair = results.pair(i, j);
      const auto metrics = DiversityMetrics::from(pair.counts());
      json.begin_object();
      json.key("first").value(results.names()[i]);
      json.key("second").value(results.names()[j]);
      json.key("both").value(pair.both());
      json.key("neither").value(pair.neither());
      json.key("first_only").value(pair.first_only());
      json.key("second_only").value(pair.second_only());
      json.key("q_statistic").value(metrics.q_statistic);
      json.key("phi").value(metrics.phi);
      json.key("disagreement").value(metrics.disagreement);
      json.key("kappa").value(metrics.kappa);
      json.key("mcnemar_p").value(metrics.mcnemar.p_value);
      json.end_object();
    }
  }
  json.end_array();

  json.key("adjudication").begin_array();
  for (std::size_t k = 1; k <= results.detector_count(); ++k) {
    json.begin_object();
    json.key("k").value(static_cast<std::uint64_t>(k));
    json.key("confusion");
    write_confusion(json, results.k_of_n_confusion(k));
    json.end_object();
  }
  json.end_array();

  json.end_object();
  return out;
}

void export_totals_csv(const JointResults& results, std::ostream& os) {
  os << "detector,alerts,total,tp,fp,tn,fn,sensitivity,specificity,"
        "precision,f1\n";
  for (std::size_t d = 0; d < results.detector_count(); ++d) {
    const auto& cm = results.confusion(d);
    os << results.names()[d] << ',' << results.alerts(d) << ','
       << results.total_requests() << ',' << cm.tp << ',' << cm.fp << ','
       << cm.tn << ',' << cm.fn << ',' << cm.sensitivity() << ','
       << cm.specificity() << ',' << cm.precision() << ',' << cm.f1()
       << '\n';
  }
}

void export_pairs_csv(const JointResults& results, std::ostream& os) {
  os << "first,second,both,neither,first_only,second_only,q,phi,"
        "disagreement,kappa\n";
  for (std::size_t i = 0; i < results.detector_count(); ++i) {
    for (std::size_t j = i + 1; j < results.detector_count(); ++j) {
      const auto& pair = results.pair(i, j);
      const auto m = DiversityMetrics::from(pair.counts());
      os << results.names()[i] << ',' << results.names()[j] << ','
         << pair.both() << ',' << pair.neither() << ',' << pair.first_only()
         << ',' << pair.second_only() << ',' << m.q_statistic << ',' << m.phi
         << ',' << m.disagreement << ',' << m.kappa << '\n';
    }
  }
}

void export_status_csv(const JointResults& results, std::ostream& os) {
  os << "detector,status,alerted,unique\n";
  for (std::size_t d = 0; d < results.detector_count(); ++d) {
    std::set<int> statuses;
    for (const auto& [status, count] : results.alerted_status(d))
      statuses.insert(status);
    for (const auto& [status, count] : results.unique_alert_status(d))
      statuses.insert(status);
    for (const int status : statuses) {
      os << results.names()[d] << ',' << status << ','
         << results.alerted_status(d).count(status) << ','
         << results.unique_alert_status(d).count(status) << '\n';
    }
  }
}

}  // namespace divscrape::core
