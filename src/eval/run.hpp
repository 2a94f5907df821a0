// The experiment runner: the one loop that generates a declarative scenario
// through the WorkloadEngine's batched seam and streams it through a
// detector pool via an AlertJoiner. The examples, `divscrape_cli
// tables/export/score` and bench_detection all sit on top of it, so every
// consumer sees the same stream the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "eval/scorer.hpp"
#include "httplog/record.hpp"
#include "util/span.hpp"
#include "workload/scenario_spec.hpp"

namespace divscrape::eval {

struct RunOptions {
  std::size_t gen_threads = 2;
  std::size_t batch_records = 1024;
};

/// What happened.
struct ExperimentOutput {
  core::JointResults results;
  std::uint64_t records = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double throughput_rps() const noexcept {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(records) / wall_seconds;
  }
};

/// Sees every record with the pool's verdict row (valid for the call only).
using RecordObserver = std::function<void(
    const httplog::LogRecord&, divscrape::span<const detectors::Verdict>)>;

/// Streams `spec` through the given pool (pool order defines result
/// indices), handing each record and its verdicts to `observe` when set.
/// The pool is reset first. The generated stream is byte-identical at any
/// gen_threads (the engine's contract), so the results are too.
[[nodiscard]] ExperimentOutput run_experiment(
    const workload::ScenarioSpec& spec,
    const std::vector<std::unique_ptr<detectors::Detector>>& pool,
    const RecordObserver& observe = {}, const RunOptions& options = {});

/// Runs `spec` through a fresh paper detector pair and returns the scored
/// outcome.
[[nodiscard]] ScenarioScore score_scenario(const workload::ScenarioSpec& spec,
                                           const RunOptions& options = {});

}  // namespace divscrape::eval
