// Shard-equivalence regression: a ShardedPipeline must produce JointResults
// *identical* to a sequential ReplayEngine run over the same CLF stream at
// EVERY (shards, batch size) combination, as promised by the
// correctness comment in src/pipeline/sharded.hpp — the combination is an
// execution knob, never an observable. The stream enters through the one
// ingest seam: LineDecoder batch mode -> process_batch, stamped from one
// token space as DetectionStage does. Both sides consume the
// serialized-then-reparsed stream so they see
// byte-identical records (ground truth is sidecar metadata and does not
// survive the wire).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "catalog_stream.hpp"
#include "core/joiner.hpp"
#include "httplog/ip.hpp"
#include "detectors/registry.hpp"
#include "httplog/io.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "stamp.hpp"
#include "util/state.hpp"

namespace {

using divscrape::core::JointResults;
using divscrape::detectors::make_paper_pair;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Truth;
using divscrape::pipeline::LineDecoder;
using divscrape::pipeline::RecordBatch;
using divscrape::pipeline::ReplayEngine;
using divscrape::pipeline::ShardedPipeline;

template <typename Key>
void expect_counters_equal(const divscrape::stats::Counter<Key>& a,
                           const divscrape::stats::Counter<Key>& b,
                           const std::string& what) {
  EXPECT_EQ(a.distinct(), b.distinct()) << what;
  for (const auto& [key, count] : a) {
    EXPECT_EQ(b.count(key), count) << what << " key " << key;
  }
}

// Exhaustive JointResults equality: every accessor the class exposes.
void expect_joint_results_identical(const JointResults& a,
                                    const JointResults& b) {
  ASSERT_EQ(a.detector_count(), b.detector_count());
  EXPECT_EQ(a.names(), b.names());
  EXPECT_EQ(a.total_requests(), b.total_requests());
  EXPECT_EQ(a.truth_count(Truth::kBenign), b.truth_count(Truth::kBenign));
  EXPECT_EQ(a.truth_count(Truth::kMalicious),
            b.truth_count(Truth::kMalicious));
  expect_counters_equal(a.all_status(), b.all_status(), "all_status");

  const std::size_t n = a.detector_count();
  for (std::size_t d = 0; d < n; ++d) {
    const std::string tag = "detector " + std::to_string(d);
    EXPECT_EQ(a.alerts(d), b.alerts(d)) << tag;
    EXPECT_EQ(a.confusion(d).tp, b.confusion(d).tp) << tag;
    EXPECT_EQ(a.confusion(d).fp, b.confusion(d).fp) << tag;
    EXPECT_EQ(a.confusion(d).tn, b.confusion(d).tn) << tag;
    EXPECT_EQ(a.confusion(d).fn, b.confusion(d).fn) << tag;
    expect_counters_equal(a.alerted_status(d), b.alerted_status(d),
                          tag + " alerted_status");
    expect_counters_equal(a.unique_alert_status(d), b.unique_alert_status(d),
                          tag + " unique_alert_status");
    expect_counters_equal(a.reasons(d), b.reasons(d), tag + " reasons");
    expect_counters_equal(a.unique_reasons(d), b.unique_reasons(d),
                          tag + " unique_reasons");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::string tag =
          "pair (" + std::to_string(i) + "," + std::to_string(j) + ")";
      EXPECT_EQ(a.pair(i, j).both(), b.pair(i, j).both()) << tag;
      EXPECT_EQ(a.pair(i, j).neither(), b.pair(i, j).neither()) << tag;
      EXPECT_EQ(a.pair(i, j).first_only(), b.pair(i, j).first_only()) << tag;
      EXPECT_EQ(a.pair(i, j).second_only(), b.pair(i, j).second_only()) << tag;
      EXPECT_EQ(a.fault_pair(i, j).both(), b.fault_pair(i, j).both()) << tag;
      EXPECT_EQ(a.fault_pair(i, j).neither(), b.fault_pair(i, j).neither())
          << tag;
      EXPECT_EQ(a.fault_pair(i, j).first_only(),
                b.fault_pair(i, j).first_only())
          << tag;
      EXPECT_EQ(a.fault_pair(i, j).second_only(),
                b.fault_pair(i, j).second_only())
          << tag;
    }
  }
  for (std::size_t k = 1; k <= n; ++k) {
    const std::string tag = "k_of_n k=" + std::to_string(k);
    EXPECT_EQ(a.k_of_n_confusion(k).tp, b.k_of_n_confusion(k).tp) << tag;
    EXPECT_EQ(a.k_of_n_confusion(k).fp, b.k_of_n_confusion(k).fp) << tag;
    EXPECT_EQ(a.k_of_n_confusion(k).tn, b.k_of_n_confusion(k).tn) << tag;
    EXPECT_EQ(a.k_of_n_confusion(k).fn, b.k_of_n_confusion(k).fn) << tag;
  }
}

// One shared CLF serialization of the smoke scenario, generated once.
const std::string& scenario_clf_text() {
  static const std::string text = [] {
    std::ostringstream out;
    divscrape::httplog::LogWriter writer(out);
    for (const auto& r : divscrape::test::catalog_records("smoke"))
      writer.write(r);
    return out.str();
  }();
  return text;
}

// The sequential reference run, computed once and shared by all shard
// counts (its JointResults never changes between parameter values).
struct SequentialBaseline {
  divscrape::pipeline::ReplayStats stats;
  JointResults results;
};

const SequentialBaseline& sequential_baseline() {
  static const SequentialBaseline baseline = [] {
    const auto pool = make_paper_pair();
    ReplayEngine engine(pool);
    std::istringstream in(scenario_clf_text());
    const auto stats = engine.replay(in);
    return SequentialBaseline{stats, engine.results()};
  }();
  return baseline;
}

// (shards, batch size)
using Combo = std::tuple<std::size_t, std::size_t>;

class ShardEquivalenceTest : public ::testing::TestWithParam<Combo> {};

// LineDecoder frames the byte stream into RecordBatches which move into the
// pipeline whole. The batch pool is wired through, so this also exercises
// the full recycle loop.
TEST_P(ShardEquivalenceTest, BatchSeamMatchesSequentialReplay) {
  const auto& [stats, sequential] = sequential_baseline();
  ASSERT_GT(stats.parsed, 0u);
  ASSERT_EQ(stats.skipped, 0u);
  const auto [shards, batch] = GetParam();

  ShardedPipeline pipeline([] { return make_paper_pair(); }, shards, batch);
  divscrape::test::Stamper stamp;
  LineDecoder decoder(
      [&](RecordBatch&& b) { pipeline.process_batch(std::move(stamp.all(b))); },
      batch, &pipeline.batch_pool());
  (void)decoder.feed(scenario_clf_text());
  (void)decoder.finish_stream();
  const auto sharded = pipeline.finish();

  EXPECT_EQ(pipeline.dispatched(), stats.parsed);
  expect_joint_results_identical(sharded, sequential);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ShardEquivalenceTest,
    // Degenerate 1-record batches, an odd size that splits every /24's
    // run across batches, small and mid sizes, and the production size.
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(1, 7, 64, 256, 1024)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "b" +
             std::to_string(std::get<1>(info.param));
    });

// save_state() serializes the shards concurrently. Its blob must still be
// exactly the one-by-one dump: the "SHRD" v2 header, then each shard's
// joiner state in shard order, where shard s holds a joiner that saw
// exactly the records routed to it (the /24 hash's high half modulo the
// shard count, as sharded.hpp documents). Checked mid-stream and at the
// end of the stream, so windows, reputation and results are all non-empty.
class ShardedSaveStateTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedSaveStateTest, ParallelSaveEqualsOneByOneDump) {
  const std::size_t shards = GetParam();
  const auto records =
      divscrape::test::stamped(divscrape::test::catalog_records("smoke"));
  ASSERT_GT(records.size(), 4096u);

  ShardedPipeline pipeline([] { return make_paper_pair(); }, shards, 512);
  std::vector<std::vector<std::unique_ptr<divscrape::detectors::Detector>>>
      pools;
  std::vector<std::unique_ptr<divscrape::core::AlertJoiner>> joiners;
  for (std::size_t s = 0; s < shards; ++s) {
    pools.push_back(make_paper_pair());
    joiners.push_back(
        std::make_unique<divscrape::core::AlertJoiner>(pools.back()));
  }

  const auto expect_same_dump = [&](std::size_t dispatched) {
    divscrape::util::StateWriter parallel;
    ASSERT_TRUE(pipeline.save_state(parallel));
    divscrape::util::StateWriter one_by_one;
    divscrape::util::put_tag(one_by_one, 0x53485244u /* "SHRD" */, 2);
    one_by_one.u64(shards);
    one_by_one.u64(dispatched);
    for (const auto& joiner : joiners) {
      divscrape::util::StateWriter blob;
      ASSERT_TRUE(joiner->save_state(blob));
      one_by_one.str(blob.buffer());
    }
    EXPECT_EQ(parallel.buffer(), one_by_one.buffer())
        << shards << " shards after " << dispatched << " records";
  };

  const std::size_t half = records.size() / 2;
  RecordBatch batch = pipeline.batch_pool().acquire();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const LogRecord& record = records[i];
    const std::uint64_t hash =
        divscrape::httplog::Ipv4Hash{}(record.ip.prefix(24));
    (void)joiners[(hash >> 32) % shards]->process(record);
    batch.append_slot() = record;
    if (batch.size() == 512 || i + 1 == half || i + 1 == records.size()) {
      pipeline.process_batch(std::move(batch));
      batch = pipeline.batch_pool().acquire();
    }
    if (i + 1 == half) expect_same_dump(half);
  }
  expect_same_dump(records.size());
  (void)pipeline.finish();
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ShardedSaveStateTest, ::testing::Values(1, 2, 3, 8),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "s" + std::to_string(info.param);
    });

}  // namespace
