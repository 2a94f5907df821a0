// WorkloadEngine contracts: thread-count-independent byte-identical
// streams, global time ordering, unstamped ua_tokens, population
// composition, and the sink integrations (detector pair,
// batched StreamWriter).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/joiner.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "stamp.hpp"
#include "traffic/stream_writer.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace divscrape {
namespace {

workload::ScenarioSpec smoke_spec(double scale = 1.0) {
  const auto spec = workload::catalog_entry("smoke", scale);
  EXPECT_TRUE(spec.has_value());
  return *spec;
}

/// Runs a spec and captures the full serialized stream plus the records.
struct Capture {
  std::string clf;                         ///< '\n'-joined CLF stream
  std::vector<httplog::LogRecord> records;
};

Capture run_capture(const workload::ScenarioSpec& spec, std::size_t threads,
                    std::size_t partitions = 8, bool lazy = false) {
  workload::EngineConfig config;
  config.gen_threads = threads;
  config.partitions = partitions;
  config.lazy_actors = lazy;
  workload::WorkloadEngine engine(spec, config);
  Capture capture;
  const auto emitted = engine.run([&capture](httplog::LogRecord&& record) {
    capture.clf += httplog::format_clf(record);
    capture.clf += '\n';
    capture.records.push_back(std::move(record));
  });
  EXPECT_EQ(emitted, capture.records.size());
  EXPECT_EQ(emitted, engine.emitted());
  return capture;
}

TEST(WorkloadEngine, ByteIdenticalAcrossThreadCounts) {
  const auto spec = smoke_spec();
  const auto t1 = run_capture(spec, 1);
  const auto t2 = run_capture(spec, 2);
  const auto t4 = run_capture(spec, 4);
  ASSERT_GT(t1.records.size(), 1000u);
  EXPECT_EQ(t1.clf, t2.clf);
  EXPECT_EQ(t1.clf, t4.clf);
  // The sidecar fields are part of the determinism contract too.
  ASSERT_EQ(t1.records.size(), t4.records.size());
  for (std::size_t i = 0; i < t1.records.size(); ++i) {
    ASSERT_EQ(t1.records[i].truth, t4.records[i].truth) << i;
    ASSERT_EQ(t1.records[i].actor_id, t4.records[i].actor_id) << i;
  }
}

TEST(WorkloadEngine, EvasionScenariosStayByteIdentical) {
  // The red tier must honor the same determinism contract as everything
  // else: apply_evasion is pure profile assignment, so the actor ordinals
  // and RNG draw order — and therefore the bytes — cannot move with the
  // thread count or the materialization strategy.
  auto spec = smoke_spec();  // trimmed duration; assert the entry resolves
  {
    const auto ladder = workload::catalog_entry("evasion_ladder_e3", 0.5);
    ASSERT_TRUE(ladder.has_value());
    spec = *ladder;
    spec.duration_days = 0.1;  // determinism pin, not a metrics run
  }
  const auto t1 = run_capture(spec, 1);
  const auto t2 = run_capture(spec, 2);
  const auto t4 = run_capture(spec, 4);
  ASSERT_GT(t1.records.size(), 500u);
  EXPECT_EQ(t1.clf, t2.clf);
  EXPECT_EQ(t1.clf, t4.clf);
  const auto lazy = run_capture(spec, 4, 8, /*lazy=*/true);
  EXPECT_EQ(t1.clf, lazy.clf);

  // And the knobs must actually bite: e3 rotates source IPs per session,
  // so some malicious actor shows up from several addresses — which a
  // no-evasion run of the same ladder never does for its fast fleet.
  std::map<std::uint32_t, std::set<std::uint32_t>> ips_by_actor;
  for (const auto& record : t1.records) {
    if (record.truth == httplog::Truth::kMalicious) {
      ips_by_actor[record.actor_id].insert(record.ip.value());
    }
  }
  std::size_t rotated = 0;
  for (const auto& [actor, ips] : ips_by_actor) {
    if (ips.size() > 1) ++rotated;
  }
  EXPECT_GT(rotated, 0u) << "rotate_ip_per_session had no visible effect";
}

TEST(WorkloadEngine, RepeatedRunsAreIdentical) {
  const auto spec = smoke_spec();
  EXPECT_EQ(run_capture(spec, 2).clf, run_capture(spec, 2).clf);
}

TEST(WorkloadEngine, DifferentSeedsDiffer) {
  auto spec = smoke_spec();
  const auto a = run_capture(spec, 1);
  spec.seed ^= 0x5eedULL;
  const auto b = run_capture(spec, 1);
  EXPECT_NE(a.clf, b.clf);
}

TEST(WorkloadEngine, StreamIsTimeOrderedWithinBounds) {
  const auto spec = smoke_spec();
  const auto capture = run_capture(spec, 2);
  httplog::Timestamp previous = spec.start;
  for (const auto& record : capture.records) {
    EXPECT_GE(record.time, previous);
    EXPECT_GE(record.time, spec.start);
    EXPECT_LT(record.time, spec.end());
    previous = record.time;
  }
}

TEST(WorkloadEngine, RecordsLeaveUnstamped) {
  // The detection consumer is the only UA-token mint: neither run() nor
  // run_batched() stamps, even into warm slots that come back stamped.
  for (const auto& record : run_capture(smoke_spec(), 4).records)
    ASSERT_EQ(record.ua_token, 0u);
  workload::WorkloadEngine engine(smoke_spec(0.5));
  pipeline::BatchPool pool;
  std::uint64_t seen = 0;
  (void)engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        for (auto& record : batch) {
          ASSERT_EQ(record.ua_token, 0u) << seen;
          record.ua_token = 7;  // a consumer's stamp on the recycled slot
          ++seen;
        }
        pool.recycle(std::move(batch));
      },
      64, &pool);
  EXPECT_GT(seen, 1000u);
}

TEST(WorkloadEngine, PopulationsAreAllPresent) {
  const auto capture = run_capture(smoke_spec(), 2);
  std::set<std::uint8_t> classes;
  bool benign = false;
  bool malicious = false;
  for (const auto& record : capture.records) {
    classes.insert(record.actor_class);
    benign |= record.truth == httplog::Truth::kBenign;
    malicious |= record.truth == httplog::Truth::kMalicious;
  }
  EXPECT_TRUE(benign);
  EXPECT_TRUE(malicious);
  // Smoke deploys every archetype: humans, crawler, monitor and the five
  // scraper kinds (8 distinct ActorClass values).
  EXPECT_GE(classes.size(), 8u);
}

TEST(WorkloadEngine, PartitionCountIsPartOfTheContract) {
  const auto spec = smoke_spec();
  const auto p4 = run_capture(spec, 2, 4);
  const auto p8 = run_capture(spec, 2, 8);
  // Different partitioning => different (equally valid) stream.
  EXPECT_NE(p4.clf, p8.clf);
  // But each is internally deterministic across thread counts.
  EXPECT_EQ(p4.clf, run_capture(spec, 4, 4).clf);
}

TEST(WorkloadEngine, MultiVhostScenarioRuns) {
  auto spec = *workload::catalog_entry("mixed_multi_vhost", 0.02);
  spec.duration_days = 0.25;  // trim the tail for test runtime
  const auto a = run_capture(spec, 4);
  ASSERT_GT(a.records.size(), 500u);
  EXPECT_EQ(a.clf, run_capture(spec, 1).clf);
}

TEST(WorkloadEngine, SurgeProducesABurst) {
  // flash_crowd at tiny scale, one simulated day around the surge: the
  // surge hour must carry far more traffic than the same hour the day
  // before... the scenario is 2 days with the surge on day 1; compare the
  // surge window against the same wall-clock window on day 0.
  const auto spec = *workload::catalog_entry("flash_crowd", 0.02);
  const auto capture = run_capture(spec, 2);
  const std::int64_t surge_begin =
      spec.start.micros() + httplog::kMicrosPerDay;
  const std::int64_t surge_end =
      surge_begin + 2 * httplog::kMicrosPerHour;
  std::uint64_t surge_window = 0;
  std::uint64_t quiet_window = 0;
  for (const auto& record : capture.records) {
    if (record.truth != httplog::Truth::kBenign) continue;
    const auto t = record.time.micros();
    if (t >= surge_begin && t < surge_end) ++surge_window;
    if (t >= surge_begin - httplog::kMicrosPerDay &&
        t < surge_end - httplog::kMicrosPerDay)
      ++quiet_window;
  }
  EXPECT_GT(surge_window, 10 * std::max<std::uint64_t>(quiet_window, 1));
}

TEST(WorkloadEngine, LazyActorsAreByteIdenticalToEager) {
  // The megasite enabler: deferred construction + slot pooling must be
  // invisible in the output — bytes AND sidecar stream — at every thread
  // count, on both a single-vhost and a multi-vhost spec.
  const auto check = [](const workload::ScenarioSpec& spec) {
    const auto eager = run_capture(spec, 2);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto lazy = run_capture(spec, threads, 8, /*lazy=*/true);
      ASSERT_EQ(eager.clf, lazy.clf);
      ASSERT_EQ(eager.records.size(), lazy.records.size());
      for (std::size_t i = 0; i < eager.records.size(); ++i) {
        ASSERT_EQ(eager.records[i].actor_id, lazy.records[i].actor_id) << i;
        ASSERT_EQ(eager.records[i].vhost, lazy.records[i].vhost) << i;
      }
    }
  };
  check(smoke_spec());
  auto multi = *workload::catalog_entry("mixed_multi_vhost", 0.02);
  multi.duration_days = 0.25;
  check(multi);
}

TEST(WorkloadEngine, LazyModeBoundsLiveActorsOnChurn) {
  // On a churn-shaped spec (finite lifetimes, day-long ramp) the live
  // high-water mark must sit far below the distinct population.
  const auto spec = *workload::catalog_entry("megasite", 0.002);
  ASSERT_TRUE(workload::static_population(spec) > 1'000u);
  workload::EngineConfig config;
  config.gen_threads = 4;
  config.lazy_actors = true;
  workload::WorkloadEngine engine(spec, config);
  std::uint64_t emitted = 0;
  (void)engine.run([&emitted](httplog::LogRecord&&) { ++emitted; });
  EXPECT_GT(emitted, 1'000u);
  EXPECT_GT(engine.actors_created(), 0u);
  EXPECT_LT(engine.peak_live_actors(), engine.actors_created());
}

TEST(WorkloadEngine, MegasitePopulationIsMillionScale) {
  const auto spec = *workload::catalog_entry("megasite", 1.0);
  EXPECT_GE(workload::static_population(spec), 1'000'000u);
  EXPECT_EQ(spec.vhosts.size(), 4u);
}

TEST(WorkloadEngine, VhostSidecarRoutesMultiVhostStreams) {
  auto spec = *workload::catalog_entry("mixed_multi_vhost", 0.02);
  spec.duration_days = 0.25;
  const auto capture = run_capture(spec, 2);
  std::set<std::uint32_t> vhosts;
  for (const auto& record : capture.records) {
    ASSERT_LT(record.vhost, spec.vhosts.size());
    vhosts.insert(record.vhost);
  }
  EXPECT_EQ(vhosts.size(), spec.vhosts.size());
  // Single-vhost streams stay all-zero.
  for (const auto& record : run_capture(smoke_spec(), 1).records)
    ASSERT_EQ(record.vhost, 0u);
}

TEST(WorkloadEngine, RequestStopEndsRunEarly) {
  auto spec = smoke_spec();
  workload::WorkloadEngine engine(spec, {});
  std::uint64_t seen = 0;
  (void)engine.run([&](httplog::LogRecord&&) {
    if (++seen == 100) engine.request_stop();
  });
  const auto full = run_capture(spec, 1).records.size();
  EXPECT_GE(seen, 100u);
  EXPECT_LT(seen, full);
}

TEST(WorkloadEngine, RunIsSingleUse) {
  workload::WorkloadEngine engine(smoke_spec(), {});
  (void)engine.run([](httplog::LogRecord&&) {});
  EXPECT_THROW((void)engine.run([](httplog::LogRecord&&) {}),
               std::logic_error);
}

TEST(WorkloadEngine, RejectsInvalidConfig) {
  workload::EngineConfig config;
  config.gen_threads = 0;
  EXPECT_THROW(workload::WorkloadEngine(smoke_spec(), config),
               std::invalid_argument);
  config.gen_threads = 1;
  config.partitions = 0;
  EXPECT_THROW(workload::WorkloadEngine(smoke_spec(), config),
               std::invalid_argument);
}

TEST(WorkloadEngine, DetectorsAlertOnCatalogSmoke) {
  // The basis of the CI simulate smoke: the smoke scenario must produce
  // alerts from both detectors when fed directly (test-stamped tokens).
  const auto pool = detectors::make_paper_pair();
  for (const auto& detector : pool) detector->reset();
  core::AlertJoiner joiner(pool);
  workload::EngineConfig config;
  config.gen_threads = 2;
  workload::WorkloadEngine engine(smoke_spec(), config);
  test::Stamper stamp;
  (void)engine.run([&](httplog::LogRecord&& record) {
    (void)joiner.process(stamp(record));
  });
  const auto& results = joiner.results();
  ASSERT_EQ(results.detector_count(), 2u);
  EXPECT_GT(results.alerts(0), 0u);
  EXPECT_GT(results.alerts(1), 0u);
}

TEST(WorkloadEngine, BatchedWriterOutputMatchesUnbatched) {
  // writev batching must be invisible in the bytes: the same engine stream
  // written through a batched and an unbatched StreamWriter produces
  // byte-identical files.
  const auto spec = smoke_spec();
  const std::string batched_path =
      ::testing::TempDir() + "workload_batched.log";
  const std::string plain_path = ::testing::TempDir() + "workload_plain.log";
  {
    traffic::StreamWriter batched(batched_path,
                                  traffic::StreamWriter::FaultPlan(), 64);
    workload::WorkloadEngine engine(spec, {});
    (void)engine.run([&batched](httplog::LogRecord&& record) {
      batched.write(record);
    });
  }
  {
    traffic::StreamWriter plain(plain_path);
    workload::WorkloadEngine engine(spec, {});
    (void)engine.run(
        [&plain](httplog::LogRecord&& record) { plain.write(record); });
  }
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const auto batched_bytes = slurp(batched_path);
  EXPECT_FALSE(batched_bytes.empty());
  EXPECT_EQ(batched_bytes, slurp(plain_path));
  std::remove(batched_path.c_str());
  std::remove(plain_path.c_str());
}

}  // namespace
}  // namespace divscrape
