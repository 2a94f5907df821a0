// Pipeline tests: the sharded-equals-sequential identity (the module's
// core correctness claim) and file replay fidelity.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "detectors/registry.hpp"
#include "httplog/io.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "traffic/scenario.hpp"

namespace {

using divscrape::core::ExperimentConfig;
using divscrape::core::JointResults;
using divscrape::core::run_experiment;
using divscrape::detectors::make_paper_pair;
using divscrape::pipeline::RecordBatch;
using divscrape::pipeline::ReplayEngine;
using divscrape::pipeline::ShardedPipeline;

/// Generates the whole scenario into pooled batches of the pipeline's
/// batch size and hands each to process_batch(); returns the record count.
std::uint64_t feed_scenario(const divscrape::traffic::ScenarioConfig& config,
                            ShardedPipeline& pipeline) {
  divscrape::traffic::Scenario scenario(config);
  std::uint64_t fed = 0;
  RecordBatch batch = pipeline.batch_pool().acquire();
  while (scenario.next(batch.append_slot())) {
    ++fed;
    if (batch.size() == pipeline.batch_size()) {
      pipeline.process_batch(std::move(batch));
      batch = pipeline.batch_pool().acquire();
    }
  }
  batch.rollback_last();
  if (!batch.empty()) pipeline.process_batch(std::move(batch));
  return fed;
}

void expect_identical(const JointResults& a, const JointResults& b) {
  ASSERT_EQ(a.detector_count(), b.detector_count());
  EXPECT_EQ(a.total_requests(), b.total_requests());
  for (std::size_t d = 0; d < a.detector_count(); ++d) {
    EXPECT_EQ(a.alerts(d), b.alerts(d)) << "detector " << d;
    EXPECT_EQ(a.confusion(d).tp, b.confusion(d).tp);
    EXPECT_EQ(a.confusion(d).fp, b.confusion(d).fp);
    EXPECT_EQ(a.confusion(d).tn, b.confusion(d).tn);
    EXPECT_EQ(a.confusion(d).fn, b.confusion(d).fn);
    for (const auto& [status, count] : a.alerted_status(d)) {
      EXPECT_EQ(b.alerted_status(d).count(status), count)
          << "detector " << d << " status " << status;
    }
    EXPECT_EQ(a.unique_alert_status(d).total(),
              b.unique_alert_status(d).total());
  }
  const auto& pa = a.pair(0, 1);
  const auto& pb = b.pair(0, 1);
  EXPECT_EQ(pa.both(), pb.both());
  EXPECT_EQ(pa.neither(), pb.neither());
  EXPECT_EQ(pa.first_only(), pb.first_only());
  EXPECT_EQ(pa.second_only(), pb.second_only());
}

class ShardCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardCountTest, ShardedEqualsSequential) {
  // The headline property: hash-partitioned parallel processing produces
  // bit-identical results to the sequential run, for any shard count.
  const auto scenario = divscrape::traffic::smoke_test();

  ExperimentConfig config;
  config.scenario = scenario;
  const auto pool = make_paper_pair();
  const auto sequential = run_experiment(config, pool);

  ShardedPipeline pipeline([] { return make_paper_pair(); }, GetParam());
  (void)feed_scenario(scenario, pipeline);
  expect_identical(pipeline.finish(), sequential.results);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(Sharded, RejectsBadConstruction) {
  EXPECT_THROW(ShardedPipeline([] { return make_paper_pair(); }, 0),
               std::invalid_argument);
  EXPECT_THROW(ShardedPipeline({}, 2), std::invalid_argument);
}

TEST(Sharded, FinishTwiceThrows) {
  ShardedPipeline pipeline([] { return make_paper_pair(); }, 2);
  (void)pipeline.finish();
  EXPECT_THROW((void)pipeline.finish(), std::logic_error);
}

TEST(Sharded, DispatchCountMatches) {
  auto scenario = divscrape::traffic::smoke_test();
  scenario.duration_days = 0.01;
  ShardedPipeline pipeline([] { return make_paper_pair(); }, 4);
  const std::uint64_t fed = feed_scenario(scenario, pipeline);
  EXPECT_EQ(pipeline.dispatched(), fed);
  const auto results = pipeline.finish();
  EXPECT_EQ(results.total_requests(), fed);
}

TEST(Replay, FileReplayMatchesDirectRunOnAlerts) {
  // Write the scenario to CLF text, replay it through fresh detectors, and
  // compare against running the same records directly. Ground truth is
  // lost on the wire (real logs are unlabelled) but alert behaviour must
  // be identical because detectors only read CLF-visible fields.
  auto config = divscrape::traffic::smoke_test();
  config.duration_days = 0.05;
  divscrape::traffic::Scenario scenario(config);

  std::ostringstream log_text;
  divscrape::httplog::LogWriter writer(log_text);
  const auto direct_pool = make_paper_pair();
  divscrape::core::AlertJoiner direct(direct_pool);
  divscrape::httplog::LogRecord r;
  while (scenario.next(r)) {
    writer.write(r);
    (void)direct.process(r);
  }

  const auto replay_pool = make_paper_pair();
  ReplayEngine engine(replay_pool);
  std::istringstream in(log_text.str());
  const auto stats = engine.replay(in);

  EXPECT_EQ(stats.parsed, direct.results().total_requests());
  EXPECT_EQ(stats.skipped, 0u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(engine.results().alerts(d), direct.results().alerts(d));
  }
  const auto& pr = engine.results().pair(0, 1);
  const auto& pd = direct.results().pair(0, 1);
  EXPECT_EQ(pr.both(), pd.both());
  EXPECT_EQ(pr.first_only(), pd.first_only());
  EXPECT_EQ(pr.second_only(), pd.second_only());
  // Truth did not survive the wire: confusion matrices must be empty.
  EXPECT_EQ(engine.results().confusion(0).total(), 0u);
}

TEST(Replay, SkipsCorruptLines) {
  const auto pool = make_paper_pair();
  ReplayEngine engine(pool);
  std::istringstream in(
      "garbage line\n"
      "1.2.3.4 - - [11/Mar/2018:00:00:00 +0000] \"GET / HTTP/1.1\" 200 1 "
      "\"-\" \"Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 "
      "Firefox/58.0\"\n"
      "also garbage\n");
  const auto stats = engine.replay(in);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.skipped, 2u);
}

}  // namespace
