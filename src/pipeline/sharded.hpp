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
// ## Batched, multi-dispatcher architecture
//
// The one ingest seam is process_batch(): records enter as whole
// RecordBatches and move between threads over bounded SPSC rings; nothing
// is handed over one record at a time:
//
//   caller ──batches──> dispatcher ring ──> dispatcher d ──batches──>
//     per-shard SPSC ring ──> shard worker (detector pool)
//
// With one dispatcher (the default) the caller's batch is moved into the
// dispatcher ring untouched — a pointer-swap handoff. With M > 1
// dispatchers (shards are partitioned across them in contiguous key
// ranges: dispatcher d owns shards [d*S/M, (d+1)*S/M)) the caller routes
// each record by its /24 shard key into a pending batch for the
// dispatcher that owns its shard. Each dispatcher consumes its input ring,
// re-routes the batch's records into per-shard pending batches, and pushes
// full ones into that shard's ring; a dispatcher that owns exactly one
// shard forwards batches whole instead. Shard s therefore has exactly one
// producer (its owning dispatcher) and one consumer (its worker) — every
// ring in the graph is SPSC, and per-shard record order equals input order
// by FIFO composition, which is what makes JointResults byte-identical to
// the sequential engine at EVERY (shards, dispatchers, batch size)
// setting.
//
// Batches are recycled through one shared BatchPool (consumers return,
// producers acquire), so the steady state allocates nothing: strings are
// byte-copied into warm slots (see record_batch.hpp). Backpressure is
// structural — rings are bounded, so a caller that outruns detection
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
  /// `batch_size` is the records-per-batch granularity of every handoff.
  ///
  /// `max_backlog` bounds each shard's unprocessed run-ahead in records:
  /// it is realized as the shard ring's capacity in batches
  /// (max(1, max_backlog / batch_size)), so a dispatcher that outpaces a
  /// worker blocks on the ring instead of buffering the stream. 0 picks a
  /// generous-but-bounded default (rings are bounded by construction).
  ///
  /// `dispatchers` (clamped to [1, shards]) is the number of dispatcher
  /// threads the shard set is range-partitioned across. Purely an
  /// execution knob: results are identical for any value.
  ShardedPipeline(PoolFactory factory, std::size_t shards,
                  std::size_t batch_size = 1024,
                  std::size_t max_backlog = 16 * 1024,
                  std::size_t dispatchers = 1);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// The ingest seam: hands a whole batch to the pipeline, which takes
  /// ownership (the batch is recycled into the internal pool after its
  /// shard workers finish). Called from one caller thread only. With 1
  /// dispatcher the batch is moved into the dispatcher ring without
  /// touching a record; with M > 1 its records are split into
  /// per-dispatcher pending batches. Producers should acquire batches from
  /// batch_pool() to close the recycle loop.
  void process_batch(RecordBatch&& batch);

  /// The pipeline's batch arena — producers acquire here so consumers'
  /// recycled batches (with warm string storage) come back around.
  [[nodiscard]] BatchPool& batch_pool() noexcept { return pool_; }

  /// Barrier: flushes every pending batch through the dispatchers and
  /// blocks until every worker has *processed* everything enqueued so far.
  /// Checkpointing callers need this — a persisted offset must not cover
  /// records still sitting in a ring, or a crash loses them from the
  /// results while resume skips them. The pipeline stays usable
  /// afterwards.
  void drain();

  /// Flushes rings, joins dispatchers and workers, merges shard results.
  /// Must be called exactly once; process_batch() is illegal afterwards.
  [[nodiscard]] core::JointResults finish();

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t dispatchers() const noexcept {
    return dispatchers_.size();
  }
  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }
  /// Records each shard's worker has evaluated since construction, in
  /// shard order (not restored by load_state()). Exact once drain() or
  /// finish() has returned; a live gauge otherwise.
  [[nodiscard]] std::vector<std::uint64_t> shard_processed() const;
  /// High-water mark of any single shard's (enqueued - processed) records,
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
  /// member doesn't support serialization. Dispatcher count and
  /// batch size are execution knobs, not state, so a blob restores at any
  /// setting of them; the shard count and the routing are state (the
  /// "SHRD" tag's version names the routing).
  [[nodiscard]] bool save_state(util::StateWriter& w);
  /// Restores from save_state() output; call before any process_batch().
  /// The shard count must match the saved one (routing is count-dependent).
  /// On failure every shard is reset cold and false is returned.
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  /// Dispatcher-ring item: a data batch, or a flush marker (control flows
  /// in-band through the same FIFO, so a marker's arrival proves every
  /// earlier batch was already re-routed).
  struct DispatchItem {
    RecordBatch batch;
    std::uint64_t flush_seq = 0;  ///< nonzero = flush marker, no data
  };

  struct Shard {
    explicit Shard(std::size_t ring_batches) : ring(ring_batches) {}
    SpscRing<RecordBatch> ring;
    std::unique_ptr<core::AlertJoiner> joiner;
    std::vector<std::unique_ptr<detectors::Detector>> pool;
    RecordBatch pending;  ///< dispatcher-side accumulation for this shard
    /// Records ever pushed into the ring (owning dispatcher only writes;
    /// read by drain() after the dispatcher acked a flush, so no torn
    /// reads matter — but keep it atomic for TSan-visible correctness).
    std::atomic<std::uint64_t> enqueued{0};
    /// Dispatcher-observed high water of enqueued - processed (relaxed:
    /// an instrumentation gauge, not a synchronization point).
    std::atomic<std::uint64_t> peak_backlog{0};
    std::mutex idle_mutex;
    std::condition_variable idle;
    /// Records evaluated by the worker. Atomic so drain()'s predicate can
    /// read it; the worker's empty idle_mutex critical section before
    /// notify pairs the update with the waiter's locked predicate check.
    std::atomic<std::uint64_t> processed{0};
  };

  struct Dispatcher {
    explicit Dispatcher(std::size_t ring_batches) : ring(ring_batches) {}
    SpscRing<DispatchItem> ring;
    std::size_t first_shard = 0;  ///< owned range [first_shard, last_shard)
    std::size_t last_shard = 0;
    RecordBatch pending;  ///< caller-side accumulation (M > 1 routing)
    std::uint64_t flush_requested = 0;  ///< caller-side sequence
    std::mutex ack_mutex;
    std::condition_variable ack_cv;
    std::uint64_t flush_acked = 0;  ///< dispatcher-side (under ack_mutex)
    std::thread thread;
  };

  void dispatcher_loop(Dispatcher& d);
  void worker_loop(Shard& shard);
  /// Routes one record into shard s's pending batch (dispatcher thread).
  void route_to_shard(std::size_t s, const httplog::LogRecord& record);
  /// Pushes shard s's pending batch into its ring (dispatcher thread).
  void flush_shard_pending(Shard& shard);
  /// Accounts `batch` against the shard's backlog gauges and pushes it
  /// into the shard ring (dispatcher thread).
  void push_shard_batch(Shard& shard, RecordBatch&& batch);
  [[nodiscard]] std::size_t shard_of(const httplog::LogRecord& r) const;
  /// Flushes the caller-side pending batch of dispatcher d into its ring.
  void flush_caller_pending(Dispatcher& d);

  std::size_t batch_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
  std::vector<std::uint32_t> shard_owner_;  ///< shard index -> dispatcher
  std::vector<std::thread> workers_;
  BatchPool pool_;
  std::uint64_t dispatched_ = 0;
  bool finished_ = false;
};

}  // namespace divscrape::pipeline
