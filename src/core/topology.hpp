// Deployment topologies — the paper's Section V trade-off between running
// the tools in parallel (both monitor all traffic) and in serial (one tool
// filters; the other only analyzes what survived).
//
// The parallel 1oo2/2oo2 deployments need no class: every tool sees every
// request, so their alert sets are the AlertJoiner's k-of-n adjudication
// of the standalone verdicts (JointResults::k_of_n_confusion).
//
// Serial semantics matter for stateful detectors: the downstream tool's
// behavioural state evolves only from the traffic that reaches it, so a
// cascade is *not* derivable from the two tools' standalone verdict
// streams — it must be executed. That is exactly what this class does.
// A cascade is itself a detector, so it can be evaluated against ground
// truth, joined against other detectors, or nested. `divscrape_cli tables`
// prints both topologies side by side.
#pragma once

#include <memory>
#include <string>

#include "detectors/detector.hpp"

namespace divscrape::core {

/// Serial cascade: the filter tool inspects everything; requests it alerts
/// on are blocked (alerted) and never reach the analyzer tool. The cascade
/// alert set is filter-alerts plus analyzer-alerts-on-survivors.
class SerialDeployment final : public detectors::Detector {
 public:
  SerialDeployment(std::unique_ptr<detectors::Detector> filter,
                   std::unique_ptr<detectors::Detector> analyzer);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] detectors::Verdict evaluate(
      const httplog::LogRecord& record) override;
  void reset() override;

  /// Requests that reached the analyzer (survived the filter).
  [[nodiscard]] std::uint64_t analyzer_load() const noexcept {
    return analyzer_load_;
  }
  /// Requests seen in total.
  [[nodiscard]] std::uint64_t total_load() const noexcept {
    return total_load_;
  }

 private:
  std::unique_ptr<detectors::Detector> filter_;
  std::unique_ptr<detectors::Detector> analyzer_;
  std::string name_;
  std::uint64_t analyzer_load_ = 0;
  std::uint64_t total_load_ = 0;
};

}  // namespace divscrape::core
