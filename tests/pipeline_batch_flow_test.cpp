// Batch-flow unit coverage: the RecordBatch arena contract, the BatchPool
// recycle loop, SpscRing FIFO/close/backpressure semantics, the
// LineDecoder batch-mode flush invariant, MultiTailer batch framing, and
// the ShardedPipeline's backpressure bound, batch-size unobservability and
// broadcast handoff (one-subnet routing, empty batches, batch recycling).
// The full results-identity matrix lives in
// pipeline_shard_equivalence_test.cpp; this file pins the building blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/joiner.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "httplog/record.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/spsc_ring.hpp"
#include "stamp.hpp"
#include "traffic/stream_writer.hpp"

namespace {

using namespace divscrape;
using pipeline::BatchPool;
using pipeline::RecordBatch;
using pipeline::ShardedPipeline;
using pipeline::SpscRing;

httplog::LogRecord make_record(int i) {
  httplog::LogRecord r;
  r.ip = httplog::Ipv4(10, 0, static_cast<std::uint8_t>(i % 7),
                       static_cast<std::uint8_t>(1 + i % 200));
  r.time = httplog::Timestamp{1'500'000'000'000'000LL + i * 250'000LL};
  r.target = "/item/" + std::to_string(i % 13);
  r.status = 200;
  r.bytes = 512;
  r.bytes_dash = false;
  r.user_agent = "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/115.0";
  return r;
}

/// make_record(i), stamped: what a ShardedPipeline's detectors take.
httplog::LogRecord stamped_record(int i) {
  return test::stamped(make_record(i));
}

TEST(RecordBatchTest, AppendRollbackClearKeepSlots) {
  RecordBatch batch;
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 10; ++i) batch.append_slot() = make_record(i);
  EXPECT_EQ(batch.size(), 10u);
  EXPECT_EQ(batch[3].target, "/item/3");

  batch.rollback_last();
  EXPECT_EQ(batch.size(), 9u);
  EXPECT_EQ(batch.slot_capacity(), 10u);  // the slot stays allocated

  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.slot_capacity(), 10u);  // arena contract: slots survive

  // Refill reuses the same slots; capacity does not grow until exceeded.
  for (int i = 0; i < 10; ++i) batch.append_slot() = make_record(100 + i);
  EXPECT_EQ(batch.slot_capacity(), 10u);
  EXPECT_EQ(batch[0].target, "/item/" + std::to_string(100 % 13));
}

TEST(RecordBatchTest, MovedFromBatchIsEmpty) {
  RecordBatch batch;
  for (int i = 0; i < 5; ++i) batch.append_slot() = make_record(i);
  RecordBatch moved(std::move(batch));
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.begin(), batch.end());
  RecordBatch assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 5u);
  EXPECT_EQ(assigned[4].target, "/item/4");
  EXPECT_TRUE(moved.empty());
  // A moved-from batch is reusable: it grows a fresh arena.
  batch.append_slot() = make_record(7);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].target, "/item/7");
}

TEST(RecordBatchTest, PoolRecyclesWarmBatches) {
  BatchPool pool;
  EXPECT_EQ(pool.idle(), 0u);
  RecordBatch batch = pool.acquire();  // pool empty -> fresh batch
  for (int i = 0; i < 32; ++i) batch.append_slot() = make_record(i);
  pool.recycle(std::move(batch));
  EXPECT_EQ(pool.idle(), 1u);

  RecordBatch warm = pool.acquire();
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_TRUE(warm.empty());               // recycled cleared...
  EXPECT_EQ(warm.slot_capacity(), 32u);    // ...but the arena came back
}

TEST(SpscRingTest, FifoOrderAndCloseSemantics) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ring.push(int{i});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));  // full

  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);  // strict FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));

  ring.push(7);
  ring.close();
  ASSERT_TRUE(ring.pop(out));  // close drains what remains...
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.pop(out));  // ...then signals end-of-stream
  EXPECT_THROW(ring.push(8), std::logic_error);
}

TEST(SpscRingTest, CapacityClampedToOne) {
  SpscRing<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(1);
  EXPECT_FALSE(ring.try_push(2));
}

TEST(SpscRingTest, BlockingHandoffDeliversEverythingInOrder) {
  // Producer outruns a slow consumer through a tiny ring: push() must
  // block (backpressure) instead of dropping, and order must hold.
  SpscRing<int> ring(2);
  constexpr int kItems = 500;
  std::vector<int> received;
  std::thread consumer([&] {
    int v;
    while (ring.pop(v)) received.push_back(v);
  });
  for (int i = 0; i < kItems; ++i) ring.push(int{i});
  ring.close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

TEST(LineDecoderBatchMode, FlushesPartialBatchAtFeedBoundary) {
  std::vector<std::size_t> batch_sizes;
  std::uint64_t records_seen = 0;
  BatchPool pool;
  pipeline::LineDecoder decoder(
      [&](RecordBatch&& b) {
        batch_sizes.push_back(b.size());
        records_seen += b.size();
        pool.recycle(std::move(b));
      },
      4, &pool);

  std::string text;
  for (int i = 0; i < 10; ++i) text += httplog::format_clf(make_record(i)) + "\n";
  text += "torn partial without newline";
  EXPECT_EQ(decoder.feed(text), 10u);
  // 10 records at batch size 4: two full batches + the partial batch of 2,
  // flushed before feed() returned (the checkpoint invariant).
  EXPECT_EQ(records_seen, 10u);
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(batch_sizes[1], 4u);
  EXPECT_EQ(batch_sizes[2], 2u);
  EXPECT_TRUE(decoder.has_partial_line());  // the torn tail is held, not lost

  (void)decoder.finish_stream();  // torn tail is garbage -> skipped
  EXPECT_EQ(decoder.stats().skipped, 1u);
  EXPECT_EQ(records_seen, 10u);
}

TEST(LineDecoderBatchMode, ParseFailureRollsBackTheSlot) {
  std::uint64_t records_seen = 0;
  pipeline::LineDecoder decoder(
      [&](RecordBatch&& b) {
        for (const auto& r : b) EXPECT_EQ(r.status, 200);
        records_seen += b.size();
      },
      64);
  std::string text = httplog::format_clf(make_record(1)) + "\n" +
                     "this is not CLF\n" +
                     httplog::format_clf(make_record(2)) + "\n";
  EXPECT_EQ(decoder.feed(text), 2u);
  EXPECT_EQ(records_seen, 2u);  // the failed line never reached a batch
  EXPECT_EQ(decoder.stats().skipped, 1u);
}

TEST(MultiTailerBatchMode, FramesMergedStreamIntoBatches) {
  const std::string path =
      ::testing::TempDir() + "divscrape_batchflow_" +
      std::to_string(::getpid()) + ".log";
  traffic::StreamWriter writer(path);
  std::vector<std::size_t> batch_sizes;
  std::uint64_t records_seen = 0;
  BatchPool pool;
  pipeline::MultiTailer tailer(
      {path},
      pipeline::MultiTailer::BatchSink([&](RecordBatch&& b) {
        batch_sizes.push_back(b.size());
        records_seen += b.size();
        pool.recycle(std::move(b));
      }),
      8, pipeline::MultiTailConfig{}, &pool);

  for (int i = 0; i < 20; ++i) writer.write(make_record(i));
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(records_seen, 20u);
  for (const std::size_t s : batch_sizes) EXPECT_LE(s, 8u);
  // poll()/flush() never buffer a partial batch across calls.
  for (int i = 20; i < 23; ++i) writer.write(make_record(i));
  (void)tailer.poll();
  (void)tailer.flush();
  EXPECT_EQ(records_seen, 23u);
  std::remove(path.c_str());
}

TEST(ShardedBatchFlow, BacklogStaysWithinConfiguredBound) {
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kMaxBacklog = 32;
  ShardedPipeline pipeline([] { return detectors::make_paper_pair(); },
                           /*shards=*/2, kBatch, kMaxBacklog);
  RecordBatch batch = pipeline.batch_pool().acquire();
  for (int i = 0; i < 5000; ++i) {
    batch.append_slot() = stamped_record(i);
    if (batch.size() == kBatch) {
      pipeline.process_batch(std::move(batch));
      batch = pipeline.batch_pool().acquire();
    }
  }
  pipeline.drain();
  // Structural bound: rings hold max_backlog/batch batches, plus one batch
  // mid-push and one mid-process per shard.
  EXPECT_LE(pipeline.peak_shard_backlog(), kMaxBacklog + 2 * kBatch);
  EXPECT_EQ(pipeline.dispatched(), 5000u);
  (void)pipeline.finish();
}

TEST(ShardedBatchFlow, BatchSizeIsNotObservableInResults) {
  // The degenerate 1-record-per-batch pipeline and a large-batch pipeline
  // must produce byte-identical JSON — batch size is an execution knob.
  const auto run_with = [](std::size_t batch_size) {
    ShardedPipeline pipeline([] { return detectors::make_paper_pair(); },
                             /*shards=*/3, batch_size);
    RecordBatch batch = pipeline.batch_pool().acquire();
    for (int i = 0; i < 2000; ++i) {
      batch.append_slot() = stamped_record(i);
      // Hand over at awkward, varying batch boundaries.
      if (batch.size() == 1 + static_cast<std::size_t>(i % 5)) {
        pipeline.process_batch(std::move(batch));
        batch = pipeline.batch_pool().acquire();
      }
    }
    if (!batch.empty()) pipeline.process_batch(std::move(batch));
    return core::to_json(pipeline.finish());
  };
  const std::string one_record = run_with(1);
  EXPECT_EQ(run_with(1024), one_record);
  EXPECT_EQ(run_with(7), one_record);
  EXPECT_EQ(run_with(256), one_record);
}

// ---------------------------------------------------------------------------
// The broadcast handoff: every worker scans each shared batch and evaluates
// only the records of its own /24s.

/// Feeds `records` to `pipeline` in batches of `batch` from its pool.
void feed(ShardedPipeline& pipeline,
          const std::vector<httplog::LogRecord>& records, std::size_t batch) {
  RecordBatch out = pipeline.batch_pool().acquire();
  for (const auto& record : records) {
    out.append_slot() = record;
    if (out.size() == batch) {
      pipeline.process_batch(std::move(out));
      out = pipeline.batch_pool().acquire();
    }
  }
  pipeline.process_batch(std::move(out));  // possibly empty
}

std::string sequential_json(const std::vector<httplog::LogRecord>& records) {
  const auto pool = detectors::make_paper_pair();
  core::AlertJoiner joiner(pool);
  for (const auto& record : records) (void)joiner.process(record);
  return core::to_json(joiner.results());
}

TEST(ShardedBroadcast, OneSubnetIsEvaluatedByOneShardOnly) {
  std::vector<httplog::LogRecord> records;
  for (int i = 0; i < 3000; ++i) {
    records.push_back(stamped_record(i));
    records.back().ip = httplog::Ipv4(10, 0, 3, 1 + i % 200);
  }
  constexpr std::size_t kShards = 4;
  ShardedPipeline pipeline([] { return detectors::make_paper_pair(); },
                           kShards, /*batch_size=*/64);
  feed(pipeline, records, 64);
  pipeline.drain();
  auto per_shard = pipeline.shard_processed();
  std::sort(per_shard.begin(), per_shard.end());
  const std::vector<std::uint64_t> one_busy_shard = {0, 0, 0, records.size()};
  EXPECT_EQ(per_shard, one_busy_shard);
  EXPECT_EQ(core::to_json(pipeline.finish()), sequential_json(records));
}

TEST(ShardedBroadcast, EmptyBatchesChangeNothing) {
  std::vector<httplog::LogRecord> records;
  for (int i = 0; i < 500; ++i) records.push_back(stamped_record(i));
  ShardedPipeline pipeline([] { return detectors::make_paper_pair(); },
                           /*shards=*/3, /*batch_size=*/20);
  pipeline.process_batch(pipeline.batch_pool().acquire());
  pipeline.drain();
  EXPECT_EQ(pipeline.dispatched(), 0u);
  EXPECT_EQ(pipeline.shard_processed(), std::vector<std::uint64_t>(3, 0));
  feed(pipeline, records, 20);  // 500 = 25 x 20: the last batch is empty
  pipeline.process_batch(RecordBatch{});
  EXPECT_EQ(pipeline.dispatched(), records.size());
  EXPECT_EQ(core::to_json(pipeline.finish()), sequential_json(records));
}

TEST(ShardedBroadcast, EveryBatchIsRecycledExactlyOnce) {
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kRingBatches = 4;
  ShardedPipeline pipeline([] { return detectors::make_paper_pair(); },
                           /*shards=*/3, kBatch, kRingBatches * kBatch);
  for (int b = 0; b < 1000; ++b) {
    RecordBatch batch = pipeline.batch_pool().acquire();
    for (int i = 0; i < static_cast<int>(kBatch); ++i)
      batch.append_slot() = stamped_record(b * static_cast<int>(kBatch) + i);
    pipeline.process_batch(std::move(batch));
  }
  pipeline.drain();
  // After the drain every batch is back in the pool and the caller holds
  // none, so `idle` counts the batches ever made. When the caller acquires,
  // the slowest worker holds at most one batch plus a full ring. A batch
  // recycled twice would grow the pool with every push; one never
  // recycled would leave it empty.
  const std::size_t idle = pipeline.batch_pool().idle();
  EXPECT_GE(idle, 1u);
  EXPECT_LE(idle, kRingBatches + 2);
  EXPECT_EQ(pipeline.dispatched(), 1000u * kBatch);
  (void)pipeline.finish();
}

TEST(ShardedBroadcast, CompatibilitySlotAcceptsOnlyOne) {
  const auto pair = [] { return detectors::make_paper_pair(); };
  EXPECT_NO_THROW(ShardedPipeline(pair, 2, 1024, 16 * 1024, 1));
  EXPECT_THROW(ShardedPipeline(pair, 2, 1024, 16 * 1024, 2),
               std::invalid_argument);
  EXPECT_THROW(ShardedPipeline(pair, 2, 1024, 16 * 1024, 0),
               std::invalid_argument);
}

}  // namespace
