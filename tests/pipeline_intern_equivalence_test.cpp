// Interned-token equivalence: the tentpole claim of the interning PR is
// that keying detector state by interned u32 tokens changes *nothing*
// observable — JointResults must be byte-identical to the seed's
// string-keyed path, sequential and sharded. Detectors take stamped
// records only (detectors/detector.hpp), so every record handed to one
// here is stamped from one token space first (tests/stamp.hpp).
//
// Three proofs:
//   1. Golden parity: tests/data/golden_amadeus_s005_paper_pair.json is
//      the output of `divscrape_cli export --scale 0.05`, the catalog
//      amadeus_like through the WorkloadEngine at its default EngineConfig
//      (8 partitions). The same run today must serialize to the identical
//      bytes.
//   2. Sharded vs sequential at 1/2/8 shards through process_batch():
//      one worker evaluating every record, and several workers each
//      evaluating their own records of every shared batch.
//   3. DetectionStage at 1/2/4 shards over generated batches equals
//      run_experiment, and every shard's detectors see each record stamped
//      from the stage's one token space.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "pipeline/detection_stage.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/sharded.hpp"
#include "stamp.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace {

using namespace divscrape;

std::vector<std::unique_ptr<detectors::Detector>> paper_pair() {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>());
  pool.push_back(std::make_unique<detectors::ArcaneDetector>());
  return pool;
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

  const auto pool = paper_pair();
  const auto out =
      eval::run_experiment(*workload::catalog_entry("amadeus_like", 0.05), pool);
  EXPECT_EQ(core::to_json(out.results), expected);
}

TEST(InternEquivalence, ShardedMatchesSequentialCopyAndMove) {
  const auto records =
      test::stamped(test::catalog_records("amadeus_like", 0.02));
  const std::string sequential = core::to_json(run_pool(records));

  for (const std::size_t shards : {1u, 2u, 8u}) {
    // At one shard the worker evaluates every record of each batch; at 2
    // and 8 every worker scans each batch and evaluates its own records.
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
  // End-to-end: the engine fills the pipeline's pooled batches and each
  // moves whole into the shard pipeline; results must still match a
  // sequential run of the same scenario.
  const auto scenario = test::catalog_spec("amadeus_like", 0.02);
  const auto sequential = eval::run_experiment(scenario, paper_pair());

  pipeline::ShardedPipeline sharded([] { return paper_pair(); }, 4);
  workload::WorkloadEngine engine(scenario);
  test::Stamper stamp;
  (void)engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        sharded.process_batch(std::move(stamp.all(batch)));
      },
      sharded.batch_size(), &sharded.batch_pool());
  EXPECT_EQ(core::to_json(sharded.finish()),
            core::to_json(sequential.results));
}

/// Records the UA token of every record it evaluates (never alerts). Each
/// shard's pool gets its own spy, so no two threads share a log.
class TokenSpy final : public detectors::Detector {
 public:
  struct Log {
    std::map<std::uint32_t, std::string> ua_of;  ///< token -> its UA
    std::uint64_t records = 0;
    std::uint64_t unstamped = 0;
    std::uint64_t conflicts = 0;  ///< a token seen with a second UA
  };

  explicit TokenSpy(Log* log) : log_(log) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "token_spy";
  }

  [[nodiscard]] detectors::Verdict evaluate(
      const httplog::LogRecord& record) override {
    ++log_->records;
    if (record.ua_token == 0) {
      ++log_->unstamped;
    } else {
      const auto [it, fresh] =
          log_->ua_of.emplace(record.ua_token, record.user_agent);
      if (!fresh && it->second != record.user_agent) ++log_->conflicts;
    }
    return {};
  }

  void reset() override {}

 private:
  Log* log_;
};

std::vector<std::unique_ptr<detectors::Detector>> spied_pair(
    TokenSpy::Log* log) {
  auto pool = paper_pair();
  pool.push_back(std::make_unique<TokenSpy>(log));
  return pool;
}

TEST(DetectionStage, MatchesRunExperimentAndStampsOneTokenPerUa) {
  const auto scenario = test::catalog_spec("amadeus_like", 0.02);
  TokenSpy::Log reference_log;
  const auto reference =
      eval::run_experiment(scenario, spied_pair(&reference_log));
  ASSERT_GT(reference.records, 1000u);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    std::deque<TokenSpy::Log> logs;  // one per shard, stable addresses
    pipeline::DetectionStage stage(
        [&logs] { return spied_pair(&logs.emplace_back()); }, shards);
    workload::WorkloadEngine engine(scenario);
    (void)engine.run_batched(
        [&stage](pipeline::RecordBatch&& batch) {
          stage.process_batch(std::move(batch));
        },
        pipeline::kBatchRecords, &stage.batch_pool());
    EXPECT_EQ(core::to_json(stage.finish()),
              core::to_json(reference.results))
        << "shards=" << shards;

    // Across shards a token names one UA and a UA has one token.
    ASSERT_EQ(logs.size(), shards);
    std::uint64_t records = 0;
    std::map<std::uint32_t, std::string> ua_of;
    std::map<std::string, std::uint32_t> token_of;
    for (const auto& log : logs) {
      records += log.records;
      EXPECT_EQ(log.unstamped, 0u) << "shards=" << shards;
      EXPECT_EQ(log.conflicts, 0u) << "shards=" << shards;
      for (const auto& [token, ua] : log.ua_of) {
        EXPECT_EQ(ua_of.emplace(token, ua).first->second, ua);
        EXPECT_EQ(token_of.emplace(ua, token).first->second, token);
      }
    }
    EXPECT_EQ(records, reference.records) << "shards=" << shards;
    EXPECT_EQ(ua_of.size(), reference_log.ua_of.size()) << "shards=" << shards;
  }
}

}  // namespace
