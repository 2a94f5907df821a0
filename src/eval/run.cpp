#include "eval/run.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "detectors/registry.hpp"
#include "pipeline/record_batch.hpp"
#include "workload/engine.hpp"

namespace divscrape::eval {

ExperimentOutput run_experiment(
    const workload::ScenarioSpec& spec,
    const std::vector<std::unique_ptr<detectors::Detector>>& pool,
    const RecordObserver& observe, const RunOptions& options) {
  pipeline::ReplayEngine replay(pool, observe);

  workload::EngineConfig config;
  config.gen_threads = options.gen_threads;
  workload::WorkloadEngine engine(spec, config);
  pipeline::BatchPool batch_pool;

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t records = engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        replay.process_batch(batch);
        batch_pool.recycle(std::move(batch));
      },
      pipeline::kBatchRecords, &batch_pool);
  const auto t1 = std::chrono::steady_clock::now();
  return {replay.results(), records,
          std::chrono::duration<double>(t1 - t0).count()};
}

ScenarioScore score_scenario(const workload::ScenarioSpec& spec,
                             const RunOptions& options) {
  const auto pool = detectors::make_paper_pair();
  std::vector<std::string> names;
  names.reserve(pool.size());
  for (const auto& detector : pool) names.emplace_back(detector->name());
  Scorer scorer(std::move(names));
  (void)run_experiment(
      spec, pool,
      [&scorer](const httplog::LogRecord& record,
                divscrape::span<const detectors::Verdict> verdicts) {
        scorer.observe(record, verdicts);
      },
      options);
  return scorer.finish(spec.name, spec.scale);
}

}  // namespace divscrape::eval
