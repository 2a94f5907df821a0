// Warm-resume byte-identity: the schema-v3 checkpoint contract from
// checkpoint.hpp, proven end to end. A tail process killed at an arbitrary
// record index — including mid-torn-write and straddling a rotation — and
// resumed from its checkpoint (ingest offset + detection-state blob,
// committed atomically) must finish with JointResults *byte-identical* to
// an uninterrupted run over the same stream, in single-file, multi-file
// and sharded modes. The regression test comes first: it demonstrates the
// divergence a state-less (pre-v3, cold) resume produces, i.e. the bug the
// blob exists to fix.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tailer.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

using namespace divscrape;

constexpr std::size_t kFiles = 3;   // multi-file fan-out
constexpr std::size_t kShards = 2;  // sharded consumption

// Process-unique paths: ctest runs each test case as its own process, and
// several of them materialize the shared baseline concurrently.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_warm_" + std::to_string(::getpid()) +
         "_" + name;
}

// The full smoke-scenario stream: mixed benign/scraper traffic with
// time-ordered records — enough to populate windows, reputation entries
// and template tables in both detectors.
const std::vector<httplog::LogRecord>& records() {
  static const std::vector<httplog::LogRecord> all =
      test::catalog_records("smoke");
  return all;
}

// Uninterrupted single-file reference: every record written once, tailed
// once, by one engine incarnation.
const std::string& uninterrupted_single_file() {
  static const std::string json = [] {
    const auto log = temp_path("baseline.log");
    traffic::StreamWriter writer(log);
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (const auto& r : records()) writer.write(r);
    (void)tailer.poll();
    EXPECT_EQ(engine.stats().parsed, records().size());
    std::remove(log.c_str());
    return core::to_json(engine.results());
  }();
  return json;
}

// Serializes the engine's detection state into the checkpoint, then pushes
// the pair through the JSON wire — exactly what a real restart reads back.
pipeline::Checkpoint committed_checkpoint(const pipeline::LogTailer& tailer,
                                          const pipeline::ReplayEngine& engine) {
  pipeline::Checkpoint cp = tailer.checkpoint();
  util::StateWriter w;
  EXPECT_TRUE(engine.save_state(w));
  cp.state = w.take();
  const auto wire = pipeline::Checkpoint::from_json(cp.to_json());
  EXPECT_TRUE(wire.has_value());
  return *wire;
}

// The pre-v3 failure mode, demonstrated: resuming the ingest offset
// without the detection state loses every open window and accumulated
// count, so the resumed run's results CANNOT match the uninterrupted run.
// This is the divergence the state blob exists to close.
TEST(WarmResumeRegression, ColdResumeDivergesFromUninterruptedRun) {
  const auto& all = records();
  ASSERT_GT(all.size(), 400u);
  const std::size_t kill_at = all.size() / 2;
  const auto log = temp_path("cold_regression.log");
  traffic::StreamWriter writer(log);

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    saved = tailer.checkpoint();  // offset only: no state blob
  }
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    for (std::size_t i = kill_at; i < all.size(); ++i) writer.write(all[i]);
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_NE(core::to_json(engine.results()), uninterrupted_single_file())
        << "a cold resume should NOT reproduce the uninterrupted results — "
           "if it does, this regression fixture has lost its teeth";
  }
  std::remove(log.c_str());
}

// Kill at random record indices; resume warm; require byte-identity.
TEST(WarmResumeSingleFile, KillAnywhereIsByteIdentical) {
  const auto& all = records();
  ASSERT_GT(all.size(), 400u);
  stats::Rng rng(42);
  for (int round = 0; round < 4; ++round) {
    const auto kill_at = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(all.size()) - 2));
    const auto log =
        temp_path("kill_" + std::to_string(round) + ".log");
    traffic::StreamWriter writer(log);

    pipeline::Checkpoint saved;
    {
      const auto pool = detectors::make_paper_pair();
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      for (std::size_t i = 0; i < kill_at; ++i) {
        writer.write(all[i]);
        if (rng.bernoulli(0.3)) (void)tailer.poll();
      }
      (void)tailer.poll();
      saved = committed_checkpoint(tailer, engine);
    }  // the kill

    {
      const auto pool = detectors::make_paper_pair();
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      ASSERT_TRUE(tailer.resume(saved));
      util::StateReader r(saved.state);
      ASSERT_TRUE(engine.load_state(r));
      EXPECT_TRUE(r.at_end());
      for (std::size_t i = kill_at; i < all.size(); ++i) {
        writer.write(all[i]);
        if (rng.bernoulli(0.3)) (void)tailer.poll();
      }
      (void)tailer.poll();
      EXPECT_EQ(tailer.checkpoint().parsed, all.size());
      EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file())
          << "kill at record " << kill_at << " (round " << round << ")";
    }
    std::remove(log.c_str());
  }
}

// Kill while a torn write is in flight: the blob covers exactly the
// records below the committed offset; the torn prefix is re-read from the
// file by the resumed incarnation and its record is scored exactly once.
TEST(WarmResumeSingleFile, KillMidTornWriteIsByteIdentical) {
  const auto& all = records();
  const std::size_t kill_at = all.size() / 3;
  const auto log = temp_path("torn.log");
  traffic::StreamWriter writer(log);
  const std::string torn = httplog::format_clf(all[kill_at]) + "\n";

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    writer.write_bytes(std::string_view(torn).substr(0, torn.size() / 2));
    (void)tailer.poll();  // the torn prefix is buffered, not ingested
    EXPECT_TRUE(engine.has_partial_line());
    saved = committed_checkpoint(tailer, engine);
    EXPECT_EQ(saved.parsed, kill_at);
  }

  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    util::StateReader r(saved.state);
    ASSERT_TRUE(engine.load_state(r));
    writer.write_bytes(std::string_view(torn).substr(torn.size() / 2));
    for (std::size_t i = kill_at + 1; i < all.size(); ++i) {
      writer.write(all[i]);
    }
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file());
  }
  std::remove(log.c_str());
}

// The kill straddles a rotation: the log rotates while the first
// incarnation is up (so the checkpoint names the new file incarnation),
// then the process dies. The resumed run must honor the post-rotation
// offset AND the warm state that covers records from both incarnations.
TEST(WarmResumeSingleFile, KillAfterRotationIsByteIdentical) {
  const auto& all = records();
  const std::size_t rotate_at = all.size() / 3;
  const std::size_t kill_at = all.size() / 2;
  const auto log = temp_path("rotated.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  pipeline::Checkpoint saved;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < rotate_at; ++i) writer.write(all[i]);
    (void)tailer.poll();
    writer.rotate(rotated);
    for (std::size_t i = rotate_at; i < kill_at; ++i) writer.write(all[i]);
    (void)tailer.poll();  // follows the rotation
    EXPECT_EQ(tailer.rotations(), 1u);
    saved = committed_checkpoint(tailer, engine);
    EXPECT_EQ(saved.rotations, 1u);
  }

  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    ASSERT_TRUE(tailer.resume(saved));
    util::StateReader r(saved.state);
    ASSERT_TRUE(engine.load_state(r));
    for (std::size_t i = kill_at; i < all.size(); ++i) writer.write(all[i]);
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, all.size());
    EXPECT_EQ(core::to_json(engine.results()), uninterrupted_single_file());
  }
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

// ---------------------------------------------------------------------------
// Multi-file: one MultiTailer over kFiles logs, records fanned out
// round-robin (each per-file stream stays time-ordered). Both runs write,
// poll and flush at the same phase boundary, so they decode and emit the
// same record sequence — the merge layer's determinism contract.

/// Out-batch size of the merged stream; not observable in the results.
constexpr std::size_t kMergeBatch = 64;

/// The merged stream into a sequential engine's batch seam.
pipeline::MultiTailer::BatchSink engine_sink(pipeline::ReplayEngine& engine) {
  return [&engine](pipeline::RecordBatch&& batch) {
    engine.process_batch(batch);
  };
}

/// The merged stream stamped by the dispatch interner into the shards.
pipeline::MultiTailer::BatchSink sharded_sink(
    pipeline::ShardedPipeline& sharded, util::StringInterner& ua_tokens) {
  return [&sharded, &ua_tokens](pipeline::RecordBatch&& batch) {
    for (auto& record : batch)
      record.ua_token = ua_tokens.intern(record.user_agent);
    sharded.process_batch(std::move(batch));
  };
}

struct MultiLogs {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;

  explicit MultiLogs(const std::string& tag) {
    for (std::size_t i = 0; i < kFiles; ++i) {
      paths.push_back(temp_path(tag + "." + std::to_string(i) + ".log"));
      writers.push_back(std::make_unique<traffic::StreamWriter>(paths.back()));
    }
  }
  ~MultiLogs() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
  void write_range(std::size_t begin, std::size_t end) {
    const auto& all = records();
    for (std::size_t i = begin; i < end; ++i) {
      writers[i % kFiles]->write(all[i]);
    }
  }
};

std::string uninterrupted_multi_file(const std::string& tag,
                                     std::size_t phase_split) {
  MultiLogs logs(tag);
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  pipeline::MultiTailer tailer(logs.paths, engine_sink(engine), kMergeBatch);
  logs.write_range(0, phase_split);
  (void)tailer.poll();
  (void)tailer.flush();
  logs.write_range(phase_split, records().size());
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(tailer.stats().parsed, records().size());
  return core::to_json(engine.results());
}

TEST(WarmResumeMultiFile, KillAtPhaseBoundaryIsByteIdentical) {
  const auto& all = records();
  const std::size_t phase_split = all.size() / 2;
  const std::string baseline =
      uninterrupted_multi_file("multi_base", phase_split);

  MultiLogs logs("multi_kill");
  pipeline::TailSessionState session;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::MultiTailer tailer(logs.paths, engine_sink(engine),
                                 kMergeBatch);
    logs.write_range(0, phase_split);
    (void)tailer.poll();
    (void)tailer.flush();  // quiescent: every decoded record is processed
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
    }
    util::StateWriter w;
    ASSERT_TRUE(engine.save_state(w));
    session.state = w.take();
    // Through the wire, as the tail CLI's session file round-trips it.
    const auto wire = pipeline::TailSessionState::from_json(session.to_json());
    ASSERT_TRUE(wire.has_value());
    session = *wire;
  }  // the kill

  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::MultiTailer tailer(logs.paths, engine_sink(engine),
                                 kMergeBatch);
    ASSERT_EQ(session.logs.size(), tailer.files());
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      EXPECT_EQ(session.logs[i].first, tailer.path(i));
      ASSERT_TRUE(tailer.resume(i, session.logs[i].second));
    }
    util::StateReader r(session.state);
    ASSERT_TRUE(engine.load_state(r));
    EXPECT_TRUE(r.at_end());
    logs.write_range(phase_split, all.size());
    (void)tailer.poll();
    (void)tailer.flush();
    EXPECT_EQ(core::to_json(engine.results()), baseline);
  }
}

// ---------------------------------------------------------------------------
// Sharded: the same fan-out consumed by a ShardedPipeline behind the
// dispatch interner, with the drain() barrier making the queues empty (and
// the workers' joiner writes visible) before every state commit.

std::string uninterrupted_sharded(const std::string& tag,
                                  std::size_t phase_split) {
  MultiLogs logs(tag);
  pipeline::ShardedPipeline sharded([] { return detectors::make_paper_pair(); },
                                    kShards);
  util::StringInterner ua_tokens;
  pipeline::MultiTailer tailer(logs.paths, sharded_sink(sharded, ua_tokens),
                               kMergeBatch, pipeline::MultiTailConfig{},
                               &sharded.batch_pool());
  logs.write_range(0, phase_split);
  (void)tailer.poll();
  (void)tailer.flush();
  logs.write_range(phase_split, records().size());
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(tailer.stats().parsed, records().size());
  return core::to_json(sharded.finish());
}

TEST(WarmResumeSharded, KillAtPhaseBoundaryIsByteIdentical) {
  const auto& all = records();
  const std::size_t phase_split = all.size() / 2;
  const std::string baseline = uninterrupted_sharded("shard_base", phase_split);

  MultiLogs logs("shard_kill");
  pipeline::TailSessionState session;
  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards);
    util::StringInterner ua_tokens;
    pipeline::MultiTailer tailer(
        logs.paths, sharded_sink(sharded, ua_tokens), kMergeBatch,
        pipeline::MultiTailConfig{}, &sharded.batch_pool());
    logs.write_range(0, phase_split);
    (void)tailer.poll();
    (void)tailer.flush();
    // save_state drains internally: the commit point sees every dispatched
    // record processed, and the offsets below cover exactly those records.
    util::StateWriter w;
    ua_tokens.save_state(w);
    ASSERT_TRUE(sharded.save_state(w));
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
    }
    session.state = w.take();
    const auto wire = pipeline::TailSessionState::from_json(session.to_json());
    ASSERT_TRUE(wire.has_value());
    session = *wire;
  }  // the kill (ShardedPipeline aborts without finish(), as a crash would)

  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards);
    util::StringInterner ua_tokens;
    pipeline::MultiTailer tailer(
        logs.paths, sharded_sink(sharded, ua_tokens), kMergeBatch,
        pipeline::MultiTailConfig{}, &sharded.batch_pool());
    util::StateReader r(session.state);
    ASSERT_TRUE(ua_tokens.load_state(r));
    ASSERT_TRUE(sharded.load_state(r));
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(session.logs.size(), tailer.files());
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      ASSERT_TRUE(tailer.resume(i, session.logs[i].second));
    }
    logs.write_range(phase_split, all.size());
    (void)tailer.poll();
    (void)tailer.flush();
    EXPECT_EQ(core::to_json(sharded.finish()), baseline);
  }
}

// The batch seam under kill: records travel as RecordBatches through the
// dispatcher and shard rings. After the committed checkpoint, the first
// incarnation keeps feeding — those batches are in flight inside the rings
// when the destructor abort fires (the crash). Nothing past the commit
// point was checkpointed, so the resumed incarnation re-reads those
// records from the files and the result is byte-identical. The resume
// deliberately uses a DIFFERENT batch size and dispatcher count: both are
// execution knobs, not state, and must not be observable across a resume.
TEST(WarmResumeSharded, BatchedKillWithInFlightBatchesIsByteIdentical) {
  const auto& all = records();
  const std::size_t phase_split = all.size() / 2;
  const std::size_t in_flight_end = phase_split + 90;
  ASSERT_LT(in_flight_end, all.size());
  const std::string baseline = uninterrupted_sharded("batch_base", phase_split);

  MultiLogs logs("batch_kill");
  pipeline::TailSessionState session;
  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards,
        /*batch_size=*/7, /*max_backlog=*/16 * 1024, /*dispatchers=*/2);
    util::StringInterner ua_tokens;
    pipeline::MultiTailer tailer(
        logs.paths,
        pipeline::MultiTailer::BatchSink(
            [&](pipeline::RecordBatch&& batch) {
              for (auto& record : batch)
                record.ua_token = ua_tokens.intern(record.user_agent);
              sharded.process_batch(std::move(batch));
            }),
        /*batch_records=*/7, pipeline::MultiTailConfig{},
        &sharded.batch_pool());
    logs.write_range(0, phase_split);
    (void)tailer.poll();
    (void)tailer.flush();
    // Commit: save_state drains, so the blob covers exactly the records
    // the offsets below cover — none of them hiding in a batch or a ring.
    util::StateWriter w;
    ua_tokens.save_state(w);
    ASSERT_TRUE(sharded.save_state(w));
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
    }
    session.state = w.take();
    const auto wire = pipeline::TailSessionState::from_json(session.to_json());
    ASSERT_TRUE(wire.has_value());
    session = *wire;
    // Keep feeding PAST the committed checkpoint without draining: these
    // batches are in the rings when the abort fires below.
    logs.write_range(phase_split, in_flight_end);
    (void)tailer.poll();
  }  // the kill, with batches in flight

  {
    pipeline::ShardedPipeline sharded(
        [] { return detectors::make_paper_pair(); }, kShards,
        /*batch_size=*/64, /*max_backlog=*/16 * 1024, /*dispatchers=*/1);
    util::StringInterner ua_tokens;
    pipeline::MultiTailer tailer(
        logs.paths,
        pipeline::MultiTailer::BatchSink(
            [&](pipeline::RecordBatch&& batch) {
              for (auto& record : batch)
                record.ua_token = ua_tokens.intern(record.user_agent);
              sharded.process_batch(std::move(batch));
            }),
        /*batch_records=*/64, pipeline::MultiTailConfig{},
        &sharded.batch_pool());
    util::StateReader r(session.state);
    ASSERT_TRUE(ua_tokens.load_state(r));
    ASSERT_TRUE(sharded.load_state(r));
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(session.logs.size(), tailer.files());
    for (std::size_t i = 0; i < tailer.files(); ++i) {
      ASSERT_TRUE(tailer.resume(i, session.logs[i].second));
    }
    // The in-flight range is already on disk (written by the dead
    // incarnation past its commit point); only the rest is written here.
    logs.write_range(in_flight_end, all.size());
    (void)tailer.poll();
    (void)tailer.flush();
    EXPECT_EQ(core::to_json(sharded.finish()), baseline);
  }
}

/// A 2-shard pipeline that has processed the first half of the stream.
void feed_half(pipeline::ShardedPipeline& sharded,
               util::StringInterner& ua_tokens) {
  const auto& all = records();
  pipeline::RecordBatch batch = sharded.batch_pool().acquire();
  for (std::size_t i = 0; i < all.size() / 2; ++i) {
    auto& slot = batch.append_slot();
    slot = all[i];
    slot.ua_token = ua_tokens.intern(slot.user_agent);
  }
  sharded.process_batch(std::move(batch));
}

std::string sharded_blob(pipeline::ShardedPipeline& sharded) {
  util::StateWriter w;
  EXPECT_TRUE(sharded.save_state(w));
  return w.take();
}

// "SHRD" v2 names the high-bits routing. Under v2 a restored pipeline
// serializes to the same bytes it was restored from.
TEST(WarmResumeSharded, StateRoundTripIsByteStable) {
  util::StringInterner ua_tokens;
  pipeline::ShardedPipeline original(
      [] { return detectors::make_paper_pair(); }, kShards);
  feed_half(original, ua_tokens);
  const std::string blob = sharded_blob(original);
  {
    util::StateReader header(blob);
    EXPECT_TRUE(util::check_tag(header, 0x53485244u, 2));
  }

  pipeline::ShardedPipeline restored(
      [] { return detectors::make_paper_pair(); }, kShards);
  util::StateReader r(blob);
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(sharded_blob(restored), blob);
  EXPECT_EQ(restored.dispatched(), original.dispatched());
}

// A v1 sharded blob was routed by the low bits of the /24 hash, so its
// per-shard states belong to other shards than v2 routes those clients
// to: it must resume cold, never warm into the wrong shards.
TEST(WarmResumeSharded, V1RoutingBlobFallsBackCold) {
  util::StringInterner ua_tokens;
  pipeline::ShardedPipeline original(
      [] { return detectors::make_paper_pair(); }, kShards);
  feed_half(original, ua_tokens);
  std::string v1 = sharded_blob(original);
  v1[4] = 1;  // the little-endian u32 version after the "SHRD" magic

  pipeline::ShardedPipeline victim(
      [] { return detectors::make_paper_pair(); }, kShards);
  util::StateReader r(v1);
  EXPECT_FALSE(victim.load_state(r));
  EXPECT_EQ(victim.dispatched(), 0u);
  pipeline::ShardedPipeline fresh(
      [] { return detectors::make_paper_pair(); }, kShards);
  EXPECT_EQ(sharded_blob(victim), sharded_blob(fresh));
}

// A sharded blob must not restore into a pipeline with a different shard
// count — per-/24 state would land on the wrong workers.
TEST(WarmResumeSharded, ShardCountMismatchFallsBackCold) {
  pipeline::ShardedPipeline two([] { return detectors::make_paper_pair(); },
                                2);
  util::StateWriter w;
  ASSERT_TRUE(two.save_state(w));
  const std::string blob = w.take();

  pipeline::ShardedPipeline three([] { return detectors::make_paper_pair(); },
                                  3);
  util::StateReader r(blob);
  EXPECT_FALSE(three.load_state(r));
  EXPECT_EQ(three.dispatched(), 0u);
}

}  // namespace
