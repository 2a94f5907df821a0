// MultiTailer tests: the multi-file live-ingest subsystem.
//
// The tentpole claim, extended to N files: an amadeus-shaped stream split
// round-robin across three live log files — written under continuous
// adversarial conditions (torn writes incl. across polls and a rotation
// boundary, CRLF endings, garbage lines, one rotation, one
// truncate-and-restart) — tailed, decoded per file, and merged into one
// time-ordered record stream must produce JointResults byte-identical to a
// one-shot batch replay of the merged reference stream (per-file record
// streams stable-sorted by the documented merge key (time, file, seq)),
// whether the merged stream feeds the sequential ReplayEngine or a
// ShardedPipeline at 1 and 2 shards.
//
// Plus: record-exact merge order under interleaved writes, the bounded
// reorder window (forced emits + late-record accounting), per-log
// checkpoint/resume with exactly-once delivery across a kill, a restart
// over a large multi-log backlog as an exact merge, forcing on behalf of
// a quiet log, a timestamp going backwards within one log, and a one-log
// tailer passing decoded batches through whole, from the consumer's pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "capture_detector.hpp"
#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"
#include "util/interner.hpp"

namespace {

using namespace divscrape;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_mt_" + name;
}

/// Out-batch size for every tailer here: emission order does not depend
/// on it, only the handoff granularity does.
constexpr std::size_t kBatch = 64;

/// The merged stream into a sequential engine's batch seam.
pipeline::MultiTailer::BatchSink engine_sink(pipeline::ReplayEngine& engine) {
  return [&engine](pipeline::RecordBatch&& batch) {
    engine.process_batch(batch);
  };
}

/// The merged stream formatted back to wire lines, one per record.
pipeline::MultiTailer::BatchSink capture_sink(
    std::vector<std::string>& captured) {
  return [&captured](pipeline::RecordBatch&& batch) {
    for (const auto& record : batch)
      captured.push_back(httplog::format_clf(record));
  };
}

/// The merge keys on the *parsed* timestamp, and CLF wire time has second
/// resolution — a reference entry must carry the same truncated time the
/// tailer will see, not the generator's microseconds.
std::int64_t wire_time_us(const httplog::LogRecord& record) {
  return record.time.micros() -
         record.time.micros() % httplog::kMicrosPerSecond;
}

/// One parseable record as written: its merge key + its wire bytes
/// (terminator included).
struct RefEntry {
  std::int64_t time_us;
  std::uint32_t file;
  std::uint64_t seq;
  std::string wire;

  [[nodiscard]] std::tuple<std::int64_t, std::uint32_t, std::uint64_t> key()
      const {
    return {time_us, file, seq};
  }
};

/// The time-ordered merged reference stream under the merge contract's
/// deterministic tie-break.
std::string sorted_reference(std::vector<RefEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const RefEntry& a, const RefEntry& b) {
              return a.key() < b.key();
            });
  std::string merged;
  for (const auto& e : entries) merged += e.wire;
  return merged;
}

struct DriveResult {
  std::uint64_t records = 0;
  std::uint64_t garbage = 0;
  std::string reference;  ///< sorted merged parseable wire bytes
};

/// Writes the catalog amadeus_like stream at `scale` round-robin across three live log
/// files under continuous faults while `tailer` consumes it, polling
/// deterministically. The returned reference is what a fault-free merged
/// log would have contained.
DriveResult drive_faulted_multi(pipeline::MultiTailer& tailer,
                                std::vector<traffic::StreamWriter*> writers,
                                double scale) {
  const std::size_t kFiles = writers.size();
  stats::Rng rng(20180311);
  DriveResult out;
  std::vector<RefEntry> entries;
  std::vector<std::uint64_t> seq(kFiles, 0);

  std::uint64_t n = 0;
  bool rotated_once = false;
  bool truncated_once = false;
  for (const auto& record : test::catalog_records("amadeus_like", scale)) {
    ++n;
    const auto file = static_cast<std::uint32_t>(n % kFiles);
    traffic::StreamWriter& writer = *writers[file];
    if (n % 501 == 0) {  // corrupt lines: skip accounting must agree too
      ++out.garbage;
      writer.write_bytes("%% torn garbage that is definitely not CLF %%\n");
    }
    std::string wire = httplog::format_clf(record);
    wire += n % 13 == 0 ? "\r\n" : "\n";
    entries.push_back(
        RefEntry{wire_time_us(record), file, seq[file]++, wire});

    if (!rotated_once && n >= 8000) {
      // Rotation on this file with the record torn across the boundary.
      rotated_once = true;
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
      writer.write_bytes(std::string_view(wire).substr(0, cut));
      (void)tailer.poll();  // torn head held as this file's partial
      writer.rotate(writer.path() + ".rot");
      writer.write_bytes(std::string_view(wire).substr(cut));
    } else if (n % 97 == 0 && wire.size() > 2) {
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
      writer.write_bytes(std::string_view(wire).substr(0, cut));
      if (rng.bernoulli(0.5)) (void)tailer.poll();
      writer.write_bytes(std::string_view(wire).substr(cut));
    } else {
      writer.write_bytes(wire);
    }

    if (!truncated_once && n >= 20000) {
      // Drain everything first (those bytes were ingested before the
      // truncation erased them), then `> log` on this record's file.
      truncated_once = true;
      (void)tailer.poll();
      writer.truncate_restart();
    }
    if (n % 1009 == 0) (void)tailer.poll();
  }
  (void)tailer.poll();
  (void)tailer.flush();

  EXPECT_TRUE(rotated_once);
  EXPECT_TRUE(truncated_once);
  EXPECT_EQ(tailer.rotations(), 1u);
  EXPECT_EQ(tailer.truncations(), 1u);
  EXPECT_EQ(tailer.lost_incarnations(), 0u);
  EXPECT_EQ(tailer.read_errors(), 0u);
  EXPECT_EQ(tailer.buffered_records(), 0u);
  EXPECT_EQ(tailer.stats().parsed, n);
  EXPECT_EQ(tailer.stats().skipped, out.garbage);

  out.records = n;
  out.reference = sorted_reference(std::move(entries));
  return out;
}

struct MultiLogFixture {
  explicit MultiLogFixture(const std::string& tag) {
    for (int i = 0; i < 3; ++i) {
      paths.push_back(temp_path(tag + "_" + std::to_string(i) + ".log"));
      writers.push_back(std::make_unique<traffic::StreamWriter>(paths.back()));
    }
  }
  ~MultiLogFixture() {
    for (const auto& p : paths) {
      std::remove(p.c_str());
      std::remove((p + ".rot").c_str());
    }
  }
  [[nodiscard]] std::vector<traffic::StreamWriter*> writer_ptrs() const {
    std::vector<traffic::StreamWriter*> ptrs;
    for (const auto& w : writers) ptrs.push_back(w.get());
    return ptrs;
  }
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;
};

/// Exact merge wanted for the equivalence runs: no forced emissions.
pipeline::MultiTailConfig exact_merge_config() {
  pipeline::MultiTailConfig config;
  config.reorder_window_us = 0;  // watermark-only, byte-exact merge
  return config;
}

std::string batch_results_json(const std::string& reference,
                               std::uint64_t expect_parsed) {
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine batch(pool);
  std::istringstream in(reference);
  const auto stats = batch.replay(in);
  EXPECT_EQ(stats.parsed, expect_parsed);
  EXPECT_EQ(stats.skipped, 0u);
  return core::to_json(batch.results());
}

TEST(MultiTail, FaultedThreeFileTailMatchesSortedBatchReplay) {
  MultiLogFixture logs("seq");
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  pipeline::MultiTailer tailer(logs.paths, engine_sink(engine), kBatch,
                               exact_merge_config());

  const auto drive = drive_faulted_multi(tailer, logs.writer_ptrs(), 0.02);
  // The acceptance criterion: byte-identical JointResults vs a one-shot
  // batch replay of the time-ordered merged stream.
  EXPECT_EQ(core::to_json(engine.results()),
            batch_results_json(drive.reference, drive.records));
}

// Over three logs, and over one: there the decoder's batches pass through
// whole, drawn from the pool the shard workers recycle into.
TEST(MultiTail, ShardedTailMatchesSortedBatchReplayAtOneAndTwoShards) {
  for (const std::size_t files : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      MultiLogFixture logs("sh" + std::to_string(shards) + "f" +
                           std::to_string(files));
      auto writers = logs.writer_ptrs();
      writers.resize(files);
      pipeline::ShardedPipeline pipeline(
          [] { return detectors::make_paper_pair(); }, shards);
      util::StringInterner ua_tokens;  // single dispatch-side token space
      pipeline::MultiTailer tailer(
          {logs.paths.begin(), logs.paths.begin() + files},
          [&](pipeline::RecordBatch&& batch) {
            for (auto& record : batch)
              record.ua_token = ua_tokens.intern(record.user_agent);
            pipeline.process_batch(std::move(batch));
          },
          kBatch, exact_merge_config(), &pipeline.batch_pool());

      const auto drive = drive_faulted_multi(tailer, writers, 0.02);
      EXPECT_EQ(pipeline.dispatched(), drive.records);
      // The checkpoint barrier: after drain() every dispatched record has
      // been processed by its shard (would hang here if the barrier lied).
      pipeline.drain();
      const auto results = pipeline.finish();
      EXPECT_EQ(core::to_json(results),
                batch_results_json(drive.reference, drive.records))
          << "files=" << files << " shards=" << shards;
    }
  }
}

// --- record-exact merge order -------------------------------------------

std::vector<httplog::LogRecord> smoke_records(std::size_t count) {
  auto records = test::catalog_records("smoke");
  if (records.size() > count) records.resize(count);
  return records;
}

TEST(MultiTail, MergeEmitsExactlyTheSortedOrderUnderInterleavedWrites) {
  const auto records = smoke_records(150);
  ASSERT_EQ(records.size(), 150u);
  MultiLogFixture logs("order");

  std::vector<std::string> captured;
  pipeline::MultiTailer tailer(logs.paths, capture_sink(captured), kBatch,
                               exact_merge_config());

  stats::Rng rng(7);
  std::vector<RefEntry> entries;
  std::vector<std::uint64_t> seq(3, 0);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto file = static_cast<std::uint32_t>(i % 3);
    const auto wire = httplog::format_clf(records[i]);
    entries.push_back(
        RefEntry{wire_time_us(records[i]), file, seq[file]++, wire});
    logs.writers[file]->write(records[i]);
    if (rng.bernoulli(0.2)) (void)tailer.poll();
  }
  (void)tailer.poll();
  (void)tailer.flush();

  std::sort(entries.begin(), entries.end(),
            [](const RefEntry& a, const RefEntry& b) {
              return a.key() < b.key();
            });
  std::vector<std::string> expected;
  for (const auto& e : entries) expected.push_back(e.wire);
  EXPECT_EQ(captured, expected);
  EXPECT_EQ(tailer.forced_emits(), 0u);
  EXPECT_EQ(tailer.late_records(), 0u);
}

// --- bounded reorder window ---------------------------------------------

TEST(MultiTail, ReorderWindowForcesLaggardAndCountsLateRecords) {
  auto records = smoke_records(6);
  ASSERT_EQ(records.size(), 6u);
  const auto t0 = httplog::Timestamp::from_civil(2018, 3, 11, 6, 0, 0);
  const auto at = [&](int seconds) {
    return t0 + seconds * httplog::kMicrosPerSecond;
  };

  MultiLogFixture logs("window");
  traffic::StreamWriter& a = *logs.writers[0];
  traffic::StreamWriter& b = *logs.writers[1];

  std::vector<std::int64_t> emitted_times;
  pipeline::MultiTailConfig config;
  config.reorder_window_us = 1 * httplog::kMicrosPerSecond;
  pipeline::MultiTailer tailer(
      logs.paths,
      [&emitted_times](pipeline::RecordBatch&& batch) {
        for (const auto& record : batch)
          emitted_times.push_back(record.time.micros());
      },
      kBatch, config);

  const auto write_at = [&](traffic::StreamWriter& w, std::size_t i,
                            int seconds) {
    records[i].time = at(seconds);
    w.write(records[i]);
  };

  write_at(b, 0, 0);  // file B's only early record
  write_at(a, 1, 1);
  (void)tailer.poll();
  // B@0 is at the watermark and emits; A@1 waits for B to move on.
  EXPECT_EQ(emitted_times.size(), 1u);
  EXPECT_EQ(tailer.buffered_records(), 1u);

  write_at(a, 2, 2);
  (void)tailer.poll();
  // Newest frontier 2, oldest buffered 1: within the 1 s window, held.
  EXPECT_EQ(emitted_times.size(), 1u);
  EXPECT_EQ(tailer.forced_emits(), 0u);

  write_at(a, 3, 4);
  (void)tailer.poll();
  // B is now a laggard: A@1 and A@2 trail the newest frontier (4) by more
  // than the window and are forced out; A@4 itself is within it.
  EXPECT_EQ(emitted_times.size(), 3u);
  EXPECT_EQ(tailer.forced_emits(), 2u);
  EXPECT_EQ(tailer.late_records(), 0u);

  // The laggard wakes up below the emission front: emitted immediately,
  // counted as late.
  write_at(b, 4, 1);
  (void)tailer.poll();
  EXPECT_EQ(emitted_times.size(), 4u);
  EXPECT_EQ(tailer.late_records(), 1u);

  EXPECT_EQ(tailer.flush(), 1u);  // A@4 drains at the end
  const std::vector<std::int64_t> expected = {
      at(0).micros(), at(1).micros(), at(2).micros(), at(1).micros(),
      at(4).micros()};
  EXPECT_EQ(emitted_times, expected);
}

// --- per-log checkpoints: kill + resume, exactly once --------------------

TEST(MultiTail, PerLogCheckpointsResumeExactlyOnceAcrossKill) {
  const auto records = smoke_records(90);
  ASSERT_EQ(records.size(), 90u);
  MultiLogFixture logs("ckpt");
  stats::Rng rng(42);

  std::vector<RefEntry> phase1, phase2;
  std::vector<std::uint64_t> seq(3, 0);
  std::vector<std::string> captured;

  std::vector<pipeline::Checkpoint> saved;
  {
    pipeline::MultiTailer tailer(logs.paths, capture_sink(captured), kBatch,
                                 exact_merge_config());
    for (std::size_t i = 0; i < 45; ++i) {
      const auto file = static_cast<std::uint32_t>(i % 3);
      phase1.push_back(RefEntry{wire_time_us(records[i]), file, seq[file]++,
                                httplog::format_clf(records[i])});
      logs.writers[file]->write(records[i]);
      if (rng.bernoulli(0.3)) (void)tailer.poll();
    }
    (void)tailer.poll();
    (void)tailer.flush();  // the quiescent point checkpoints require
    for (std::size_t f = 0; f < tailer.files(); ++f) {
      // Through the JSON wire, exactly as a restart would read it back.
      const auto cp = pipeline::Checkpoint::from_json(
          tailer.checkpoint(f).to_json());
      ASSERT_TRUE(cp.has_value());
      saved.push_back(*cp);
    }
  }  // the "kill"

  {
    pipeline::MultiTailer tailer(logs.paths, capture_sink(captured), kBatch,
                                 exact_merge_config());
    for (std::size_t f = 0; f < tailer.files(); ++f) {
      EXPECT_TRUE(tailer.resume(f, saved[f])) << "file " << f;
    }
    for (std::size_t i = 45; i < records.size(); ++i) {
      const auto file = static_cast<std::uint32_t>(i % 3);
      phase2.push_back(RefEntry{wire_time_us(records[i]), file, seq[file]++,
                                httplog::format_clf(records[i])});
      logs.writers[file]->write(records[i]);
      if (rng.bernoulli(0.3)) (void)tailer.poll();
    }
    (void)tailer.poll();
    (void)tailer.flush();
    EXPECT_EQ(tailer.stats().parsed, records.size() - 45);
  }

  // Exactly-once: the two phases' captures concatenate to precisely the
  // sorted phase streams — nothing re-ingested, nothing dropped.
  const auto sort_entries = [](std::vector<RefEntry>& v) {
    std::sort(v.begin(), v.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.key() < b.key();
    });
  };
  sort_entries(phase1);
  sort_entries(phase2);
  std::vector<std::string> expected;
  for (const auto& e : phase1) expected.push_back(e.wire);
  for (const auto& e : phase2) expected.push_back(e.wire);
  EXPECT_EQ(captured, expected);
}

// --- catch-up is an exact merge --------------------------------------------

/// `records` stamped onto a merged timeline (one every 10 ms, so the
/// second-resolution wire time ties ~100 records per second) and dealt to
/// `files` logs at random: every log is time-ordered, and all of them end
/// within one second of each other.
std::vector<std::pair<std::uint32_t, httplog::LogRecord>> dealt_timeline(
    std::size_t count, std::uint32_t files) {
  const auto templates = smoke_records(500);
  const auto t0 = httplog::Timestamp::from_civil(2018, 3, 11, 6, 0, 0);
  stats::Rng rng(2015);
  std::vector<std::pair<std::uint32_t, httplog::LogRecord>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    httplog::LogRecord record = templates[i % templates.size()];
    record.time = t0 + static_cast<std::int64_t>(i) * 10'000;
    out.emplace_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, files - 1)), record);
  }
  return out;
}

TEST(MultiTail, RestartOverLargeBacklogIsAnExactMerge) {
  constexpr std::uint32_t kLogs = 4;
  constexpr std::size_t kBefore = 20'000;
  constexpr std::size_t kBacklog = 220'000;
  const auto timeline = dealt_timeline(kBefore + kBacklog, kLogs);
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;
  for (std::uint32_t f = 0; f < kLogs; ++f) {
    paths.push_back(temp_path("restart_" + std::to_string(f) + ".log"));
    writers.push_back(std::make_unique<traffic::StreamWriter>(
        paths.back(), traffic::StreamWriter::FaultPlan(),
        /*batch_lines=*/4096));
  }
  const auto write_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      writers[timeline[i].first]->write(timeline[i].second);
    }
    for (auto& w : writers) w->flush();
  };

  std::vector<pipeline::Checkpoint> saved;
  write_range(0, kBefore);
  {
    pipeline::MultiTailer tailer(
        paths, [](pipeline::RecordBatch&&) {}, kBatch);
    (void)tailer.poll();
    (void)tailer.flush();
    for (std::size_t f = 0; f < tailer.files(); ++f)
      saved.push_back(tailer.checkpoint(f));
  }  // the restart: the backlog below is written while nothing tails

  write_range(kBefore, timeline.size());
  std::vector<RefEntry> entries;
  std::vector<std::uint64_t> seq(kLogs, 0);
  for (std::size_t i = kBefore; i < timeline.size(); ++i) {
    const auto& [file, record] = timeline[i];
    entries.push_back(RefEntry{wire_time_us(record), file, seq[file]++,
                               httplog::format_clf(record) + "\n"});
  }

  std::string merged;
  pipeline::MultiTailer tailer(
      paths,
      [&merged](pipeline::RecordBatch&& batch) {
        for (const auto& record : batch) {
          merged += httplog::format_clf(record);
          merged += '\n';
        }
      },
      kBatch);  // the default window and cap
  for (std::size_t f = 0; f < tailer.files(); ++f) {
    ASSERT_TRUE(tailer.resume(f, saved[f])) << "file " << f;
  }
  (void)tailer.poll();
  (void)tailer.flush();

  EXPECT_EQ(tailer.stats().parsed, kBacklog);
  EXPECT_TRUE(merged == sorted_reference(std::move(entries)))
      << "catch-up output differs from the stable-sorted per-file streams";
  EXPECT_EQ(tailer.late_records(), 0u);
  EXPECT_EQ(tailer.forced_emits(), 0u);
  for (const auto& p : paths) std::remove(p.c_str());
}

// --- forcing on behalf of a quiet log --------------------------------------

TEST(MultiTail, QuietLogAtEofStillForcesAndItsLaterRecordsAreLate) {
  auto records = smoke_records(3);
  const auto t0 = httplog::Timestamp::from_civil(2018, 3, 11, 6, 0, 0);
  MultiLogFixture logs("quiet");
  std::vector<RefEntry> entries;
  std::vector<std::uint64_t> seq(3, 0);
  const auto write_at = [&](std::uint32_t file, std::int64_t ms) {
    httplog::LogRecord& record = records[file];
    record.time = t0 + ms * 1000;
    logs.writers[file]->write(record);
    entries.push_back(RefEntry{wire_time_us(record), file, seq[file]++,
                               httplog::format_clf(record)});
  };
  // Logs 0 and 2: one record per 100 ms from `from_ms` through `to_ms`.
  const auto advance = [&](std::int64_t from_ms, std::int64_t to_ms) {
    for (std::int64_t ms = from_ms; ms <= to_ms; ms += 100) {
      write_at(0, ms);
      write_at(2, ms + 50);
    }
  };

  pipeline::MultiTailConfig config;  // the default 2 s window
  config.tail.chunk_bytes = 4096;    // many small chunks per poll
  config.tail.max_chunk_bytes = 4096;
  std::vector<std::string> captured;
  pipeline::MultiTailer tailer(logs.paths, capture_sink(captured), kBatch,
                               config);

  // Log 1 ends at 9 s, logs 0 and 2 at 12 s. Log 1 had new bytes in this
  // poll, so it is not quiet yet: nothing is forced past it.
  for (std::int64_t ms = 0; ms < 10'000; ms += 1000) write_at(1, ms);
  advance(0, 12'000);
  (void)tailer.poll();
  EXPECT_EQ(tailer.forced_emits(), 0u);

  // Logs 0 and 2 run on to 60 s while log 1 stays quiet at EOF: whatever
  // trails the newest frontier by more than the window is forced past
  // its 9 s watermark, in merge order, chunk by chunk.
  advance(12'100, 60'000);
  (void)tailer.poll();
  EXPECT_GT(tailer.forced_emits(), 0u);
  EXPECT_EQ(tailer.late_records(), 0u);
  // Held: the last 58..60 s of logs 0 and 2 (wire time has 1 s grain).
  EXPECT_EQ(tailer.buffered_records(), 2u * 21u);
  (void)tailer.flush();
  std::vector<RefEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const RefEntry& a, const RefEntry& b) {
              return a.key() < b.key();
            });
  std::vector<std::string> expected;
  for (const auto& e : sorted) expected.push_back(e.wire);
  EXPECT_EQ(captured, expected);

  // The quiet log wakes up below the emission front: emitted, and late.
  const std::size_t before = captured.size();
  for (std::int64_t ms = 30'000; ms < 33'000; ms += 1000) write_at(1, ms);
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(captured.size(), before + 3);
  EXPECT_EQ(tailer.late_records(), 3u);
}

// --- disorder within one log -----------------------------------------------

TEST(MultiTail, BackwardsTimestampKeepsItsFilePositionAndCountsLate) {
  auto records = smoke_records(9);
  ASSERT_EQ(records.size(), 9u);
  const auto t0 = httplog::Timestamp::from_civil(2018, 3, 11, 6, 0, 0);
  MultiLogFixture logs("backwards");
  const auto write_at = [&](std::size_t i, std::uint32_t file, int seconds) {
    records[i].time = t0 + seconds * httplog::kMicrosPerSecond;
    logs.writers[file]->write(records[i]);
  };
  // Log 0: 10 11 12 5 13 — the fourth record steps back in time.
  // Log 1: 10 11 12 13.
  write_at(0, 0, 10);
  write_at(1, 0, 11);
  write_at(2, 0, 12);
  write_at(3, 0, 5);
  write_at(4, 0, 13);
  write_at(5, 1, 10);
  write_at(6, 1, 11);
  write_at(7, 1, 12);
  write_at(8, 1, 13);

  std::vector<std::string> captured;
  pipeline::MultiTailer tailer(logs.paths, capture_sink(captured), kBatch);
  (void)tailer.poll();
  (void)tailer.flush();

  // Heads merge by (time, file); the stepped-back record stays behind its
  // log-0 predecessors, leaves as soon as it is a head — below the front
  // (12 s), so late — and log 0 resumes its place behind it.
  const std::vector<std::size_t> order = {0, 5, 1, 6, 2, 3, 7, 4, 8};
  std::vector<std::string> expected;
  for (const std::size_t i : order)
    expected.push_back(httplog::format_clf(records[i]));
  EXPECT_EQ(captured, expected);
  EXPECT_EQ(tailer.stats().parsed, records.size());
  EXPECT_EQ(tailer.late_records(), 1u);
  EXPECT_EQ(tailer.forced_emits(), 0u);
}

// --- one log: the merge is the identity -----------------------------------

TEST(MultiTail, OneLogEmitsFileOrderAndCountsBackwardsTimestampsLate) {
  auto records = smoke_records(6);
  ASSERT_EQ(records.size(), 6u);
  const auto t0 = httplog::Timestamp::from_civil(2018, 3, 11, 6, 0, 0);
  const std::string path = temp_path("one_log_order.log");
  std::vector<std::string> expected;
  {
    traffic::StreamWriter writer(path);
    // 10 11 12 5 13 6: the fourth and sixth records step back in time.
    const int seconds[] = {10, 11, 12, 5, 13, 6};
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].time = t0 + seconds[i] * httplog::kMicrosPerSecond;
      writer.write(records[i]);
      expected.push_back(httplog::format_clf(records[i]));
    }
  }

  std::vector<std::string> captured;
  pipeline::MultiTailer tailer({path}, capture_sink(captured), kBatch);
  (void)tailer.poll();
  // poll() alone delivered everything, in file order: nothing queues.
  EXPECT_EQ(captured, expected);
  EXPECT_EQ(tailer.buffered_records(), 0u);
  EXPECT_EQ(tailer.flush(), 0u);
  EXPECT_EQ(tailer.late_records(), 2u);
  EXPECT_EQ(tailer.forced_emits(), 0u);
  std::remove(path.c_str());
}

TEST(MultiTail, OneLogDecodesIntoTheConsumersBatchPool) {
  const auto records = smoke_records(1000);
  ASSERT_EQ(records.size(), 1000u);
  const std::string path = temp_path("one_log_pool.log");
  traffic::StreamWriter writer(path);
  pipeline::BatchPool pool;
  std::uint64_t delivered = 0;
  pipeline::MultiTailer tailer(
      {path},
      [&](pipeline::RecordBatch&& batch) {
        EXPECT_LE(batch.size(), kBatch);
        delivered += batch.size();
        pool.recycle(std::move(batch));
      },
      kBatch, pipeline::MultiTailConfig{}, &pool);

  // One record per poll: a thousand decoded batches. The decoder takes
  // each fresh batch from the pool the sink recycles into, so one batch
  // circulates; a decoder drawing elsewhere would leave ~1,000 idle.
  std::size_t peak_idle = 0;
  for (const auto& record : records) {
    writer.write(record);
    (void)tailer.poll();
    peak_idle = std::max(peak_idle, pool.idle());
  }
  EXPECT_EQ(delivered, records.size());
  EXPECT_LE(peak_idle, 1u);
  std::remove(path.c_str());
}

}  // namespace
