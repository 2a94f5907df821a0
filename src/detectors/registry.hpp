// Detector factory: the reproduced two-tool deployment.
#pragma once

#include <memory>
#include <vector>

#include "detectors/detector.hpp"

namespace divscrape::detectors {

/// The paper's deployment: {Sentinel (Distil role), Arcane}, in that order.
[[nodiscard]] std::vector<std::unique_ptr<Detector>> make_paper_pair();

}  // namespace divscrape::detectors
