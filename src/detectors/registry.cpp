#include "detectors/registry.hpp"

#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"

namespace divscrape::detectors {

std::vector<std::unique_ptr<Detector>> make_paper_pair() {
  std::vector<std::unique_ptr<Detector>> pool;
  pool.push_back(std::make_unique<SentinelDetector>());
  pool.push_back(std::make_unique<ArcaneDetector>());
  return pool;
}

}  // namespace divscrape::detectors
