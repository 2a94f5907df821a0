// The experiment runner: generates a declarative scenario through the
// WorkloadEngine's batched seam and hands every batch to a
// pipeline::ReplayEngine, the one sequential consumer (`divscrape_cli
// analyze` and one-shard `tail` run on it too). The examples,
// `divscrape_cli tables/export/score` and bench_detection all sit on top of
// run_experiment, so every consumer sees the same stream the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "eval/scorer.hpp"
#include "pipeline/replay.hpp"
#include "workload/scenario_spec.hpp"

namespace divscrape::eval {

struct RunOptions {
  std::size_t gen_threads = 2;
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
using RecordObserver = pipeline::RecordObserver;

/// Streams `spec` through the given pool (pool order defines result
/// indices), handing each record and its verdicts to `observe` when set.
/// The engine resets the pool first and stamps each record's UA token
/// from its own interner. The generated stream is byte-identical at any
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
