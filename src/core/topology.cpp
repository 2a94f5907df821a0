#include "core/topology.hpp"

#include <stdexcept>

namespace divscrape::core {

SerialDeployment::SerialDeployment(
    std::unique_ptr<detectors::Detector> filter,
    std::unique_ptr<detectors::Detector> analyzer)
    : filter_(std::move(filter)), analyzer_(std::move(analyzer)) {
  if (!filter_ || !analyzer_)
    throw std::invalid_argument("SerialDeployment: null stage");
  name_ = "serial(";
  name_ += filter_->name();
  name_ += "->";
  name_ += analyzer_->name();
  name_ += ')';
}

detectors::Verdict SerialDeployment::evaluate(
    const httplog::LogRecord& record) {
  ++total_load_;
  const auto filtered = filter_->evaluate(record);
  if (filtered.alert) return filtered;
  ++analyzer_load_;
  return analyzer_->evaluate(record);
}

void SerialDeployment::reset() {
  filter_->reset();
  analyzer_->reset();
  analyzer_load_ = 0;
  total_load_ = 0;
}

}  // namespace divscrape::core
