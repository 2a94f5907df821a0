#include "eval/run.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "detectors/baselines.hpp"
#include "detectors/learned.hpp"
#include "detectors/registry.hpp"
#include "httplog/session.hpp"
#include "ml/decision_tree.hpp"
#include "ml/features.hpp"
#include "ml/naive_bayes.hpp"
#include "pipeline/record_batch.hpp"
#include "stats/rng.hpp"
#include "workload/engine.hpp"

namespace divscrape::eval {

ExperimentOutput run_experiment(
    const workload::ScenarioSpec& spec,
    const std::vector<std::unique_ptr<detectors::Detector>>& pool,
    const RecordObserver& observe, const RunOptions& options) {
  for (const auto& detector : pool) detector->reset();
  core::AlertJoiner joiner(pool);

  workload::EngineConfig config;
  config.gen_threads = options.gen_threads;
  workload::WorkloadEngine engine(spec, config);
  pipeline::BatchPool batch_pool;

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t records = engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        for (const auto& record : batch) {
          const auto verdicts = joiner.process(record);
          if (observe) observe(record, verdicts);
        }
        batch_pool.recycle(std::move(batch));
      },
      options.batch_records, &batch_pool);
  const auto t1 = std::chrono::steady_clock::now();
  return {joiner.results(), records,
          std::chrono::duration<double>(t1 - t0).count()};
}

std::vector<std::unique_ptr<detectors::Detector>> make_learned_detectors(
    const workload::ScenarioSpec& training) {
  std::vector<httplog::Session> sessions;
  httplog::Sessionizer sessionizer(
      1800.0,
      [&sessions](httplog::Session&& s) { sessions.push_back(std::move(s)); });
  workload::WorkloadEngine engine(training);
  (void)engine.run(
      [&sessionizer](httplog::LogRecord&& record) { sessionizer.add(record); });
  sessionizer.flush_all();

  const ml::Dataset data = ml::build_session_dataset(sessions);
  std::vector<std::unique_ptr<detectors::Detector>> out;
  out.push_back(std::make_unique<detectors::LearnedDetector>(
      "naive-bayes",
      std::make_shared<ml::NaiveBayes>(ml::NaiveBayes::train(data))));
  out.push_back(std::make_unique<detectors::LearnedDetector>(
      "decision-tree",
      std::make_shared<ml::DecisionTree>(ml::DecisionTree::train(data))));
  return out;
}

std::vector<std::unique_ptr<detectors::Detector>> make_full_pool(
    const workload::ScenarioSpec& spec) {
  auto pool = detectors::make_paper_pair();
  pool.push_back(std::make_unique<detectors::RateLimitDetector>());
  pool.push_back(std::make_unique<detectors::TrapDetector>());

  workload::ScenarioSpec training = spec;
  training.seed = stats::mix_seed(spec.seed, 0x7261696eULL);
  training.scale = std::min(spec.scale, 0.02);
  for (auto& detector : make_learned_detectors(training))
    pool.push_back(std::move(detector));
  return pool;
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
