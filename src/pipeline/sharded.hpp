// Sharded detection pipeline: hash-partitions the request stream across N
// worker threads, each owning a private detector-pool instance, and merges
// the per-shard JointResults at the end.
//
// Correctness argument (tested in tests/pipeline_test.cpp and
// tests/pipeline_shard_equivalence_test.cpp): every detector in this
// repository keys its state by client IP or (IP, UA), and Sentinel's
// widest coupling is the /24 subnet. Partitioning by the /24 prefix
// therefore routes every record that could share detector state to the
// same shard, and each shard sees its sub-stream in input order. Hence the
// merged results are *identical* to a sequential run — the classic
// "partition by the state key" recipe for scaling stateful stream
// processors.
//
// ## Routing uses the high bits of the hash
//
// shard_of() hashes the /24 prefix with Ipv4Hash (Fibonacci hashing: a
// multiply by an odd 64-bit constant) and reduces the *high* 32 bits of
// the product modulo the shard count. The low bits are useless here: the
// /24 prefix has its low 8 bits zeroed, and multiplying by an odd constant
// preserves trailing zeros, so the low byte of the product is always 0.
// Reducing the whole product modulo 2, 4 or 8 therefore sent every record
// to shard 0 and left the other workers idle. The high half of a
// multiplicative hash is where the multiply mixes every input bit, so it
// spreads subnets evenly at any shard count. The routing decides which
// shard holds which client's state, so it is part of the save_state()
// wire format ("SHRD" v2; a v1 blob is rejected and resumes cold).
//
// ## Broadcast batches: every worker scans, each evaluates its own
//
// process_batch() is the one ingest seam. The caller moves its batch into
// a shared slot whose countdown is the shard count and pushes that slot
// into every shard's bounded SPSC ring; it touches no record. Worker s
// walks the batch in input order and evaluates only the records with
// shard_of(r) == s (every record when there is one shard), so results are
// byte-identical to the sequential engine at every (shards, batch size)
// setting, and a running pipeline owns exactly one thread per shard. The
// worker that brings the countdown to zero recycles the batch into the
// BatchPool and the slot into a free list, so the steady state allocates
// nothing. Rings are bounded, so a caller that outruns the slowest worker
// blocks in process_batch() instead of buffering the stream.
//
// Note the one caveat: JointResults' k-of-N adjudication and pairwise
// tables are per-record joins of the same pool, so they shard cleanly too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "httplog/record.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/spsc_ring.hpp"

namespace divscrape::pipeline {

/// Creates one detector-pool instance per shard.
using PoolFactory =
    std::function<std::vector<std::unique_ptr<detectors::Detector>>()>;

class ShardedPipeline {
 public:
  /// `shards` >= 1. The factory is invoked `shards` times up front.
  ///
  /// `batch_size` is the records-per-batch granularity producers fill.
  ///
  /// `max_backlog` bounds each shard's unscanned run-ahead in records: it
  /// is realized as the shard ring's capacity in batches
  /// (max(1, max_backlog / batch_size)), so a caller that outpaces a
  /// worker blocks on the ring instead of buffering the stream. 0 picks a
  /// generous-but-bounded default (rings are bounded by construction).
  ///
  /// `dispatchers` is a compatibility slot for callers written against the
  /// retired dispatcher tier: it must be 1, anything else throws
  /// std::invalid_argument. Leave it defaulted.
  ShardedPipeline(PoolFactory factory, std::size_t shards,
                  std::size_t batch_size = 1024,
                  std::size_t max_backlog = 16 * 1024,
                  std::size_t dispatchers = 1);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// The ingest seam: hands a whole batch to every shard worker without
  /// touching a record. The pipeline takes ownership and recycles the
  /// batch into batch_pool() once every worker has scanned it. Called from
  /// one caller thread only; producers should acquire batches from
  /// batch_pool() to close the recycle loop.
  void process_batch(RecordBatch&& batch);

  /// The pipeline's batch arena — producers acquire here so consumers'
  /// recycled batches (with warm string storage) come back around.
  [[nodiscard]] BatchPool& batch_pool() noexcept { return pool_; }

  /// Barrier: blocks until every worker has scanned (and so evaluated its
  /// share of) everything enqueued so far. Checkpointing callers need this
  /// — a persisted offset must not cover records still sitting in a ring,
  /// or a crash loses them from the results while resume skips them. The
  /// pipeline stays usable afterwards.
  void drain();

  /// Closes the rings, joins the workers and merges shard results.
  /// Must be called exactly once; process_batch() is illegal afterwards.
  [[nodiscard]] core::JointResults finish();

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }
  /// Records each shard's worker has evaluated since construction, in
  /// shard order (not restored by load_state()). Exact once drain() or
  /// finish() has returned; a live gauge otherwise.
  [[nodiscard]] std::vector<std::uint64_t> shard_processed() const;
  /// High-water mark of any single shard's (enqueued - scanned) records,
  /// sampled at enqueue time — the backpressure tests assert this stays
  /// within the configured bound.
  [[nodiscard]] std::uint64_t peak_shard_backlog() const noexcept;

  /// Warm-checkpoint dump of every shard's joiner (detector states +
  /// per-shard results). Internally drain()s first — the workers are idle
  /// and their rings empty while the states are read, so the dump is a
  /// consistent cut of the whole pipeline. The shards serialize
  /// concurrently (one on the caller, the rest on helper threads joined
  /// before return) and are concatenated in shard order, so the bytes
  /// equal a one-by-one dump. Returns false (nothing written) if a pool
  /// member doesn't support serialization. Batch size is an execution
  /// knob, not state, so a blob restores at any batch size; the shard
  /// count and the routing are state (the "SHRD" tag's version names the
  /// routing).
  [[nodiscard]] bool save_state(util::StateWriter& w);
  /// Restores from save_state() output; call before any process_batch().
  /// The shard count must match the saved one (routing is count-dependent).
  /// On failure every shard is reset cold and false is returned.
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  /// One caller batch, shared by every shard ring. `readers` counts the
  /// workers that have not finished scanning it.
  struct Slot {
    RecordBatch batch;
    std::atomic<std::size_t> readers{0};
  };

  struct Shard {
    explicit Shard(std::size_t ring_batches) : ring(ring_batches) {}
    SpscRing<Slot*> ring;
    std::unique_ptr<core::AlertJoiner> joiner;
    std::vector<std::unique_ptr<detectors::Detector>> pool;
    /// Records ever pushed into the ring, and the high water of
    /// (enqueued - scanned) at push time (caller thread only).
    std::uint64_t enqueued = 0;
    std::uint64_t peak_backlog = 0;
    std::mutex idle_mutex;
    std::condition_variable idle;
    /// Records the worker has scanned, and of those evaluated. Atomic so
    /// drain()'s predicate and shard_processed() can read them; the
    /// worker's empty idle_mutex critical section before notify pairs the
    /// update with the waiter's locked predicate check.
    std::atomic<std::uint64_t> scanned{0};
    std::atomic<std::uint64_t> processed{0};
  };

  void worker_loop(std::size_t s);
  [[nodiscard]] std::size_t shard_of(const httplog::LogRecord& r) const;
  [[nodiscard]] Slot* acquire_slot();
  /// Recycles the slot's batch and shelves the slot (last reader only).
  void release_slot(Slot* slot);
  /// Closes every ring and joins the workers; idempotent.
  void stop_workers();

  std::size_t batch_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  BatchPool pool_;
  std::mutex slots_mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;  ///< every slot ever made
  std::vector<Slot*> free_slots_;
  std::uint64_t dispatched_ = 0;
  bool finished_ = false;
  std::vector<std::thread> workers_;  ///< last: they use every member above
};

}  // namespace divscrape::pipeline
