// Extending the framework: plug a custom detector into the diversity
// analysis. This is the intended downstream use of the library — an
// operator writes their own in-house rule, deploys it next to the
// existing tools, and asks the same questions the paper asks: how much
// does the new tool overlap, what does it uniquely catch, and is the added
// diversity worth its false positives?
//
// The custom rule here is deliberately simple: alert any client whose
// query strings show systematic fare-search enumeration (many distinct
// from/to city pairs from one IP in a short window).
#include <cstdio>
#include <deque>
#include <iostream>
#include <set>
#include <string>
#include <unordered_map>

#include "core/contingency.hpp"
#include "core/report.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "httplog/url.hpp"
#include "workload/catalog.hpp"

using namespace divscrape;

namespace {

/// Alerts clients enumerating many distinct search routes per window.
class RouteEnumerationDetector final : public detectors::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "route-enum";
  }

  [[nodiscard]] detectors::Verdict evaluate(
      const httplog::LogRecord& record) override {
    auto& state = clients_[record.ip];
    // Prune the 10-minute window.
    const auto cutoff =
        record.time + (-10 * 60 * httplog::kMicrosPerSecond);
    while (!state.empty() && state.front().first < cutoff)
      state.pop_front();

    if (record.path() == "/search") {
      const auto from = httplog::query_value(record.query(), "from");
      const auto to = httplog::query_value(record.query(), "to");
      if (from && to) state.push_back({record.time, *from + ">" + *to});
    }
    std::set<std::string> distinct;
    for (const auto& [t, route] : state) distinct.insert(route);
    const double score =
        std::min(1.0, static_cast<double>(distinct.size()) / 12.0);
    if (distinct.size() >= 12) {
      return {true, score, detectors::AlertReason::kBehavioral};
    }
    return {false, score, detectors::AlertReason::kNone};
  }

  void reset() override { clients_.clear(); }

 private:
  std::unordered_map<httplog::Ipv4,
                     std::deque<std::pair<httplog::Timestamp, std::string>>,
                     httplog::Ipv4Hash>
      clients_;
};

}  // namespace

int main() {
  // Deploy {sentinel, arcane, route-enum} side by side.
  auto pool = detectors::make_paper_pair();
  pool.push_back(std::make_unique<RouteEnumerationDetector>());

  const auto out =
      eval::run_experiment(*workload::catalog_entry("amadeus_like", 0.1), pool);
  const auto& r = out.results;

  std::printf("three-tool deployment over %s requests\n\n",
              core::with_thousands(r.total_requests()).c_str());
  core::TextTable totals({"detector", "alerts", "sens", "spec"});
  for (std::size_t d = 0; d < r.detector_count(); ++d) {
    totals.add_row({std::string(r.names()[d]),
                    core::with_thousands(r.alerts(d)),
                    core::as_percent(r.confusion(d).sensitivity()),
                    core::as_percent(r.confusion(d).specificity())});
  }
  totals.print(std::cout);

  std::printf("\npairwise diversity against the new tool:\n");
  for (std::size_t d = 0; d < 2; ++d) {
    const auto m = core::DiversityMetrics::from(r.pair(d, 2).counts());
    std::printf("  %-10s vs route-enum: Q=%.4f disagreement=%.4f\n",
                r.names()[d].c_str(), m.q_statistic, m.disagreement);
  }

  std::printf("\nwhat route-enum uniquely catches (by status):\n");
  for (const auto& [status, count] : r.unique_alert_status(2).by_count()) {
    std::printf("  %-28s %s\n", httplog::status_label(status).c_str(),
                core::with_thousands(count).c_str());
  }

  std::printf(
      "\nadjudication with three tools (k-of-3 sensitivity/specificity):\n");
  for (std::size_t k = 1; k <= 3; ++k) {
    const auto& cm = r.k_of_n_confusion(k);
    std::printf("  %zuoo3: sens %.4f  spec %.4f\n", k, cm.sensitivity(),
                cm.specificity());
  }
  return 0;
}
