// Pipeline tests: the sharded-equals-sequential identity (the module's
// core correctness claim), file replay fidelity and the replay engine's
// per-record observer.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "httplog/io.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace {

using divscrape::core::JointResults;
using divscrape::detectors::make_paper_pair;
using divscrape::eval::run_experiment;
using divscrape::pipeline::RecordBatch;
using divscrape::pipeline::ReplayEngine;
using divscrape::pipeline::ShardedPipeline;

/// The catalog smoke spec cut to `days` of simulated time.
divscrape::workload::ScenarioSpec smoke(double days) {
  auto spec = *divscrape::workload::catalog_entry("smoke");
  spec.duration_days = days;
  return spec;
}

/// Generates the whole scenario into pooled batches of the pipeline's
/// batch size and hands each to process_batch(); returns the record count.
std::uint64_t feed_scenario(const divscrape::workload::ScenarioSpec& spec,
                            ShardedPipeline& pipeline) {
  divscrape::workload::WorkloadEngine engine(spec);
  return engine.run_batched(
      [&pipeline](RecordBatch&& batch) {
        pipeline.process_batch(std::move(batch));
      },
      pipeline.batch_size(), &pipeline.batch_pool());
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
  const auto scenario = *divscrape::workload::catalog_entry("smoke");
  const auto sequential = run_experiment(scenario, make_paper_pair());

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
  ShardedPipeline pipeline([] { return make_paper_pair(); }, 4);
  const std::uint64_t fed = feed_scenario(smoke(0.01), pipeline);
  EXPECT_EQ(pipeline.dispatched(), fed);
  const auto results = pipeline.finish();
  EXPECT_EQ(results.total_requests(), fed);
}

/// Counts the records and the distinct /24 subnets its shard's worker
/// evaluates into an external tally.
class CountingDetector final : public divscrape::detectors::Detector {
 public:
  struct Tally {
    std::uint64_t records = 0;
    std::set<std::uint32_t> subnets;
  };
  explicit CountingDetector(Tally* tally) : tally_(tally) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "counting";
  }
  [[nodiscard]] divscrape::detectors::Verdict evaluate(
      const divscrape::httplog::LogRecord& record) override {
    ++tally_->records;
    tally_->subnets.insert(record.ip.prefix(24).value());
    return {};
  }
  void reset() override {}

 private:
  Tally* tally_;
};

TEST(Sharded, RoutingSpreadsSubnetsAcrossShards) {
  // Routing must use the well-mixed bits of the /24 hash: a /24 prefix
  // has eight trailing zero bits, which a multiplicative hash keeps, so a
  // low-bits reduction sends everything to shard 0 at 2, 4 and 8 shards.
  // The identity suites cannot see that (one busy shard is trivially
  // identical to the sequential run), so tally per shard directly.
  //
  // The share asserted is of distinct subnets, not of records: three /24s
  // carry about 80% of amadeus_like's records, so no routing that keeps a
  // subnet on one shard can give 8 shards 1/16 of the records each.
  const auto spec = *divscrape::workload::catalog_entry("amadeus_like", 0.01);
  for (const std::size_t shards : {2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    std::vector<CountingDetector::Tally> tallies(shards);
    std::size_t made = 0;
    ShardedPipeline pipeline(
        [&] {
          std::vector<std::unique_ptr<divscrape::detectors::Detector>> pool;
          pool.push_back(std::make_unique<CountingDetector>(&tallies[made++]));
          return pool;
        },
        shards);
    ASSERT_EQ(made, shards);
    const std::uint64_t fed = feed_scenario(spec, pipeline);
    (void)pipeline.finish();

    std::uint64_t records = 0;
    std::size_t subnets = 0;
    std::vector<std::uint64_t> per_shard;
    for (const auto& tally : tallies) {
      records += tally.records;
      subnets += tally.subnets.size();  // disjoint: one shard per subnet
      per_shard.push_back(tally.records);
    }
    EXPECT_EQ(records, fed);
    EXPECT_EQ(pipeline.shard_processed(), per_shard);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(tallies[s].records, 0u) << "shard " << s;
      EXPECT_GE(tallies[s].subnets.size() * 2 * shards, subnets)
          << "shard " << s << " holds " << tallies[s].subnets.size()
          << " of " << subnets << " subnets";
    }
  }
}

TEST(Replay, FileReplayMatchesDirectRunOnAlerts) {
  // Write the scenario to CLF text, replay it through fresh detectors, and
  // compare against running the same records directly. Ground truth is
  // lost on the wire (real logs are unlabelled) but alert behaviour must
  // be identical because detectors only read CLF-visible fields.
  std::ostringstream log_text;
  divscrape::httplog::LogWriter writer(log_text);
  const auto direct = run_experiment(
      smoke(0.05), make_paper_pair(),
      [&writer](const divscrape::httplog::LogRecord& r,
                divscrape::span<const divscrape::detectors::Verdict>) {
        writer.write(r);
      });

  const auto replay_pool = make_paper_pair();
  ReplayEngine engine(replay_pool);
  std::istringstream in(log_text.str());
  const auto stats = engine.replay(in);

  EXPECT_EQ(stats.parsed, direct.results.total_requests());
  EXPECT_EQ(stats.skipped, 0u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(engine.results().alerts(d), direct.results.alerts(d));
  }
  const auto& pr = engine.results().pair(0, 1);
  const auto& pd = direct.results.pair(0, 1);
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

TEST(ReplayEngine, ObserverSeesEveryRecordWithItsVerdicts) {
  // The observer is how analyze writes --alerts and how run_experiment
  // feeds the scorer: one call per dispatched record, with the verdict row
  // the joiner folded in, and the record already stamped by the engine.
  // Generated records carry the generator's tokens, so they are scrubbed
  // first: a token seen by the observer was stamped by the engine.
  const auto pool = make_paper_pair();
  std::uint64_t calls = 0;
  std::vector<std::uint64_t> alerts(pool.size(), 0);
  std::map<std::string, std::uint32_t> token_of;
  std::set<std::uint32_t> tokens;
  ReplayEngine engine(
      pool, [&](const divscrape::httplog::LogRecord& record,
                divscrape::span<const divscrape::detectors::Verdict> row) {
        ++calls;
        ASSERT_EQ(row.size(), pool.size());
        for (std::size_t d = 0; d < row.size(); ++d) alerts[d] += row[d].alert;
        ASSERT_NE(record.ua_token, 0u) << "record " << calls;
        const auto [it, fresh] =
            token_of.emplace(record.user_agent, record.ua_token);
        EXPECT_EQ(it->second, record.ua_token) << record.user_agent;
        if (fresh) {
          EXPECT_TRUE(tokens.insert(record.ua_token).second)
              << "two UAs share token " << record.ua_token;
        }
      });
  divscrape::workload::WorkloadEngine generator(smoke(0.05));
  const std::uint64_t fed = generator.run_batched([&](RecordBatch&& batch) {
    for (auto& record : batch) record.ua_token = 0;
    engine.process_batch(batch);
  });

  const auto& results = engine.results();
  ASSERT_GT(fed, 0u);
  EXPECT_EQ(calls, fed);
  EXPECT_EQ(calls, results.total_requests());
  for (std::size_t d = 0; d < pool.size(); ++d) {
    EXPECT_GT(alerts[d], 0u) << "detector " << d;
    EXPECT_EQ(alerts[d], results.alerts(d)) << "detector " << d;
  }
}

}  // namespace
