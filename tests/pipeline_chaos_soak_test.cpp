// Chaos soak harness tests: the closed-loop production-day soak must pass
// its own oracle on a real (small) catalog scenario, deterministically.
//
// These run the full loop — workload generation into per-vhost live logs,
// scripted faults (rotations, truncations, torn writes, ENOSPC, short-write
// bursts, kill-anywhere), warm resume from periodic checkpoints, and the
// byte-identical batch-replay reference — exactly as `divscrape soak` does,
// just on the smoke scenario so the whole suite stays seconds-fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "pipeline/chaos.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace divscrape;

std::string soak_dir(const std::string& name) {
  return ::testing::TempDir() + "divscrape_chaos_" +
         std::to_string(::getpid()) + "_" + name;
}

pipeline::ChaosConfig smoke_config(const std::string& dir_name) {
  auto spec = workload::catalog_entry("smoke", 1.0);
  EXPECT_TRUE(spec.has_value());
  pipeline::ChaosConfig config;
  config.spec = std::move(*spec);
  config.work_dir = soak_dir(dir_name);
  config.gen_threads = 2;
  config.partitions = 4;
  // The smoke hour is ~6k records; checkpoint often enough that every
  // scripted kill lands after at least one cadence persist.
  config.persist_every_records = 500;
  return config;
}

TEST(ChaosSoak, SmokeScenarioPassesOracle) {
  auto config = smoke_config("oracle");
  auto report = pipeline::run_chaos_soak(config);

  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.results_identical);
  EXPECT_EQ(report.lost_records, 0u);
  EXPECT_EQ(report.duplicate_records, 0u);
  EXPECT_EQ(report.live_records, report.reference_records);
  // Every written record was scored; only scripted ENOSPC lines are gone.
  EXPECT_EQ(report.records_generated,
            report.live_records + report.records_dropped);
  EXPECT_GT(report.live_records, 1000u);
}

TEST(ChaosSoak, DefaultScheduleFiresEveryFaultKindThrice) {
  auto config = smoke_config("schedule");
  ASSERT_EQ(pipeline::kChaosFaultEpochs, 21);  // 7 kinds x 3
  auto report = pipeline::run_chaos_soak(config);

  EXPECT_EQ(report.faults, 21u);
  EXPECT_EQ(report.rotations, 3u);
  EXPECT_EQ(report.truncations, 3u);
  EXPECT_EQ(report.torn_writes, 3u);
  EXPECT_EQ(report.enospc_faults, 3u);
  EXPECT_EQ(report.short_write_bursts, 3u);
  // kill + persist-then-kill
  EXPECT_EQ(report.kills, 6u);
  EXPECT_EQ(report.warm_resumes, 6u);
  EXPECT_EQ(report.cold_resumes, 0u);
  // ENOSPC drops exactly one whole line per firing.
  EXPECT_EQ(report.records_dropped, report.enospc_faults);
  // Initial persist + cadence persists + post-rotation/truncation anchors.
  EXPECT_GT(report.checkpoints_persisted, report.kills);
}

TEST(ChaosSoak, SoakIsDeterministicAcrossRuns) {
  auto first_config = smoke_config("det_a");
  auto second_config = smoke_config("det_b");
  auto first = pipeline::run_chaos_soak(first_config);
  auto second = pipeline::run_chaos_soak(second_config);

  EXPECT_TRUE(first.passed);
  EXPECT_TRUE(second.passed);
  EXPECT_EQ(first.records_generated, second.records_generated);
  EXPECT_EQ(first.live_records, second.live_records);
  EXPECT_EQ(first.records_dropped, second.records_dropped);
  EXPECT_EQ(first.checkpoints_persisted, second.checkpoints_persisted);
  EXPECT_EQ(first.live_results_json, second.live_results_json);
}

TEST(ChaosSoak, RssLimitViolationFailsTheRun) {
  auto config = smoke_config("rss_fail");
  config.rss_limit_mb = 0.001;  // impossible: any process exceeds 1 KiB
  auto report = pipeline::run_chaos_soak(config);

  EXPECT_FALSE(report.rss_within_limit);
  EXPECT_FALSE(report.passed);
  // Only the memory check failed; correctness must still hold.
  EXPECT_TRUE(report.results_identical);
  EXPECT_EQ(report.lost_records, 0u);
  EXPECT_EQ(report.duplicate_records, 0u);
}

// The gate reads the process's peak RSS once, as the run ends, so no phase
// can peak unseen between live polls. A peak that no poll could sample
// (here, one that is gone before the run starts) is still reported.
TEST(ChaosSoak, RssPeakCoversPeaksBetweenPolls) {
  constexpr std::size_t kSpikeBytes = std::size_t{192} << 20;
  auto* spike = static_cast<char*>(std::malloc(kSpikeBytes));
  ASSERT_NE(spike, nullptr);
  std::memset(spike, 1, kSpikeBytes);  // resident, not just mapped
  asm volatile("" : : "r"(spike) : "memory");  // keep the writes
  std::free(spike);

  auto config = smoke_config("rss_peak");
  const auto report = pipeline::run_chaos_soak(config);
  EXPECT_GE(report.rss_peak_kb, kSpikeBytes / 1024);
  EXPECT_TRUE(report.passed);
}

TEST(ChaosSoak, BenchDocumentWritesMachineReadableJson) {
  auto config = smoke_config("bench");
  auto report = pipeline::run_chaos_soak(config);
  ASSERT_TRUE(report.passed);

  const std::string path = soak_dir("bench") + "/BENCH_soak.json";
  ASSERT_TRUE(pipeline::write_chaos_bench(config, report, path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_NE(doc.find("divscrape.bench_soak.v1"), std::string::npos);
  EXPECT_NE(doc.find("\"passed\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"kills\":6"), std::string::npos);
  EXPECT_NE(doc.find("\"warm_resumes\":6"), std::string::npos);
  EXPECT_NE(doc.find("\"results_identical\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"rss_peak_kb\""), std::string::npos);
}

}  // namespace
