// Detector factory: the reproduced two-tool deployment. The wider pool of
// the diversity-metric experiments, whose learned members train on a
// generated stream, is eval::make_full_pool.
#pragma once

#include <memory>
#include <vector>

#include "detectors/detector.hpp"

namespace divscrape::detectors {

/// The paper's deployment: {Sentinel (Distil role), Arcane}, in that order.
[[nodiscard]] std::vector<std::unique_ptr<Detector>> make_paper_pair();

}  // namespace divscrape::detectors
