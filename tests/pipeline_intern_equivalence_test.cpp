// Interned-token equivalence: the tentpole claim of the interning PR is
// that keying detector state by interned u32 tokens changes *nothing*
// observable — JointResults must be byte-identical to the seed's
// string-keyed path, for stamped and unstamped records, sequential and
// sharded.
//
// Three proofs:
//   1. Golden parity vs the seed: tests/data/golden_amadeus_s005_paper_pair
//      .json was captured from the pre-interning tree (commit fdc3288) by
//      running `divscrape_cli export --scale 0.05`. The same run today must
//      serialize to the identical bytes.
//   2. Stamped vs unstamped: scrubbing ua_token (forcing every detector
//      through its local-interner fallback) must not change results.
//   3. Sharded vs sequential at 1/2/8 shards through process_batch(), over
//      both dispatcher handoffs: batches moved whole (one shard) and
//      records copied into per-shard batches (2 and 8 shards).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/sharded.hpp"
#include "traffic/scenario.hpp"

namespace {

using namespace divscrape;

std::vector<std::unique_ptr<detectors::Detector>> paper_pair() {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>());
  pool.push_back(std::make_unique<detectors::ArcaneDetector>());
  return pool;
}

std::vector<httplog::LogRecord> materialize(double scale) {
  traffic::Scenario scenario(traffic::amadeus_like(scale));
  std::vector<httplog::LogRecord> records;
  httplog::LogRecord r;
  while (scenario.next(r)) records.push_back(r);
  return records;
}

core::JointResults run_pool(const std::vector<httplog::LogRecord>& records) {
  const auto pool = paper_pair();
  core::AlertJoiner joiner(pool);
  for (const auto& r : records) (void)joiner.process(r);
  return joiner.results();
}

TEST(InternEquivalence, GoldenParityWithSeedStringKeyedPath) {
  // Byte-for-byte comparison against the JSON the *seed* (string-keyed)
  // tree exported for this exact configuration.
  std::ifstream golden_file(std::string(DIVSCRAPE_TEST_DATA_DIR) +
                            "/golden_amadeus_s005_paper_pair.json");
  ASSERT_TRUE(golden_file) << "golden file missing";
  std::stringstream golden;
  golden << golden_file.rdbuf();
  std::string expected = golden.str();
  // The CLI appended one newline after the document.
  while (!expected.empty() &&
         (expected.back() == '\n' || expected.back() == '\r'))
    expected.pop_back();

  core::ExperimentConfig config;
  config.scenario = traffic::amadeus_like(0.05);
  const auto pool = paper_pair();
  const auto out = core::run_experiment(config, pool);
  EXPECT_EQ(core::to_json(out.results), expected);
}

TEST(InternEquivalence, StampedAndUnstampedRunsAreIdentical) {
  auto stamped = materialize(0.02);
  auto unstamped = stamped;
  for (auto& r : unstamped) r.ua_token = 0;  // force local-intern fallback

  const auto a = run_pool(stamped);
  const auto b = run_pool(unstamped);
  EXPECT_EQ(core::to_json(a), core::to_json(b));
}

TEST(InternEquivalence, ShardedMatchesSequentialCopyAndMove) {
  const auto records = materialize(0.02);
  const std::string sequential = core::to_json(run_pool(records));

  for (const std::size_t shards : {1u, 2u, 8u}) {
    // At one shard the dispatcher moves each batch whole to the worker; at
    // 2 and 8 it copies every record into a per-shard batch.
    pipeline::ShardedPipeline pipeline([] { return paper_pair(); }, shards);
    pipeline::RecordBatch batch = pipeline.batch_pool().acquire();
    for (const auto& r : records) {
      batch.append_slot() = r;
      if (batch.size() == pipeline.batch_size()) {
        pipeline.process_batch(std::move(batch));
        batch = pipeline.batch_pool().acquire();
      }
    }
    if (!batch.empty()) pipeline.process_batch(std::move(batch));
    EXPECT_EQ(core::to_json(pipeline.finish()), sequential)
        << "shards=" << shards;
  }
}

TEST(InternEquivalence, RunShardedMovePathMatchesSequential) {
  // End-to-end: the generator writes straight into pooled batch slots and
  // each full batch moves into the shard pipeline; results must still
  // match a sequential run of the same scenario.
  const auto scenario = traffic::amadeus_like(0.02);
  core::ExperimentConfig config;
  config.scenario = scenario;
  const auto pool = paper_pair();
  const auto sequential = core::run_experiment(config, pool);

  pipeline::ShardedPipeline sharded([] { return paper_pair(); }, 4);
  traffic::Scenario source(scenario);
  pipeline::RecordBatch batch = sharded.batch_pool().acquire();
  while (source.next(batch.append_slot())) {
    if (batch.size() == sharded.batch_size()) {
      sharded.process_batch(std::move(batch));
      batch = sharded.batch_pool().acquire();
    }
  }
  batch.rollback_last();
  if (!batch.empty()) sharded.process_batch(std::move(batch));
  EXPECT_EQ(core::to_json(sharded.finish()),
            core::to_json(sequential.results));
}

}  // namespace
