// MultiTailer: multi-file live ingest — one LogTailer + LineDecoder per
// input log (one per vhost, as in the paper's deployment) merged into a
// single time-ordered record stream.
//
// ## Merge model
//
// Each file's records are decoded in file order and buffered in a min-heap
// keyed by (timestamp, file index, per-file sequence) — a deterministic
// total order whose tie-break is documented because it IS the contract: a
// batch replay of the per-file record streams stable-sorted by the same
// key is byte-identical to what the merge emits (the multi-file
// fault-equivalence tests assert exactly this).
//
// Emission uses a watermark: a buffered record is released once every file
// that has ever produced a record has progressed past it (per-file streams
// are time-ordered, the property real access logs have — each file's
// frontier is the key of its newest decoded record, and anything at or
// below the minimum frontier can no longer be preceded by unseen data).
// Two escape hatches keep one quiet file from stalling the world:
//
//   * a file that has produced nothing yet does not hold the watermark
//     back (its eventual first record may emit late — counted);
//   * the bounded reorder window: when the heap's oldest record is more
//     than `reorder_window_us` behind the newest frontier, it is emitted
//     anyway (forced_emits() counts these; any record subsequently
//     arriving below the emission front is emitted immediately and
//     counted by late_records()).
//
// Both hatches are keyed to *simulated* time carried by new records, so
// when every log goes quiet the heap's tail sits still; callers own the
// wall-clock idle policy — call flush() once poll() has returned 0 for a
// while (the CLI flushes after two empty polls).
//
// The sink is a plain callable: `ReplayEngine::process_record` for
// sequential consumption, or a lambda that stamps and forwards into a
// ShardedPipeline for multi-core consumption (records sharing detector
// state — same /24 — always land in one shard, so sharded results merge
// bit-identically; see sharded.hpp).
//
// ## Checkpoints
//
// checkpoint(i) delegates to file i's tailer; offsets only cover records
// already *decoded*, so records still buffered in the reorder heap are
// covered too (they were decoded). Persist checkpoints only at a
// quiescent point — after flush() — so a crash cannot lose heap-buffered
// records that the offsets already committed: TailSession::persist flushes
// the heap before every checkpoint save for exactly this reason.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "httplog/record.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/tailer.hpp"

namespace divscrape::pipeline {

struct MultiTailConfig {
  TailConfig tail;  ///< per-file tailer knobs (chunk sizes, read seam)
  /// Bounded reorder window (simulated time): the heap's oldest record is
  /// force-emitted once it trails the newest file frontier by more than
  /// this. <= 0 disables forcing (exact merge, unbounded time skew).
  std::int64_t reorder_window_us = 2 * httplog::kMicrosPerSecond;
  /// Memory backstop: once this many records are buffered, the heap is
  /// drained down during decoding (watermark-released records first, then
  /// forced ones, counted in forced_emits). Keeps the initial catch-up
  /// over a large pre-existing backlog from materializing every record at
  /// once; in steady-state tailing the heap never gets near it. 0
  /// disables the cap.
  std::size_t max_buffered_records = 64 * 1024;
};

class MultiTailer {
 public:
  using Config = MultiTailConfig;
  /// Receives the merged, time-ordered record stream.
  using RecordSink = std::function<void(httplog::LogRecord&&)>;
  /// Receives the merged stream framed into RecordBatches (batch mode).
  using BatchSink = std::function<void(RecordBatch&&)>;

  /// One tailer per path; paths need not exist yet. The sink must outlive
  /// the MultiTailer.
  MultiTailer(std::vector<std::string> paths, RecordSink sink,
              Config config = Config());

  /// Batch-sink mode: merged records are copy-assigned into warm batch
  /// slots and handed downstream `batch_records` at a time — the framing
  /// a ShardedPipeline::process_batch consumer wants. Wire `pool` to the
  /// consumer's recycle side (e.g. &pipeline.batch_pool()) to close the
  /// arena loop. The emission *order* is identical to record-sink mode;
  /// only the handoff granularity changes.
  ///
  /// Checkpoint invariant: poll() and flush() hand off a partial batch
  /// before returning, so the batch never buffers records across calls —
  /// flush() remains the complete quiescent point for checkpointing.
  MultiTailer(std::vector<std::string> paths, BatchSink sink,
              std::size_t batch_records, Config config = Config(),
              BatchPool* pool = nullptr);

  MultiTailer(const MultiTailer&) = delete;
  MultiTailer& operator=(const MultiTailer&) = delete;

  /// Polls every file once (draining all available bytes, following
  /// rotations/truncations per LogTailer), then emits every merged record
  /// the watermark or reorder window releases. Returns bytes consumed
  /// across all files (0 = fully caught up).
  std::size_t poll();

  /// Emits everything still buffered, in merge-key order — the quiescent
  /// point for checkpointing and the end-of-run drain. Returns the number
  /// of records emitted.
  std::uint64_t flush();

  /// Resumes file `i` from its saved checkpoint (see LogTailer::resume).
  bool resume(std::size_t file, const Checkpoint& cp);
  /// File i's committed position + accounting. Only persist after flush()
  /// (see class comment).
  [[nodiscard]] Checkpoint checkpoint(std::size_t file) const;

  [[nodiscard]] std::size_t files() const noexcept { return inputs_.size(); }
  [[nodiscard]] const std::string& path(std::size_t file) const {
    return inputs_.at(file)->tailer.path();
  }

  /// Aggregate decode accounting across all files (wall_seconds unused).
  [[nodiscard]] ReplayStats stats() const;
  [[nodiscard]] std::size_t buffered_records() const noexcept {
    return heap_.size();
  }
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return late_records_;
  }
  [[nodiscard]] std::uint64_t forced_emits() const noexcept {
    return forced_emits_;
  }
  [[nodiscard]] std::uint64_t rotations() const noexcept;
  [[nodiscard]] std::uint64_t truncations() const noexcept;
  [[nodiscard]] std::uint64_t lost_incarnations() const noexcept;
  [[nodiscard]] std::uint64_t read_errors() const noexcept;

 private:
  /// Deterministic merge key; per-file streams are monotone in it.
  struct MergeKey {
    std::int64_t time_us = std::numeric_limits<std::int64_t>::min();
    std::uint32_t file = 0;
    std::uint64_t seq = 0;

    friend bool operator<(const MergeKey& a, const MergeKey& b) noexcept {
      if (a.time_us != b.time_us) return a.time_us < b.time_us;
      if (a.file != b.file) return a.file < b.file;
      return a.seq < b.seq;
    }
    friend bool operator<=(const MergeKey& a, const MergeKey& b) noexcept {
      return !(b < a);
    }
  };

  struct Pending {
    MergeKey key;
    httplog::LogRecord record;
  };
  /// std::push_heap builds a max-heap; invert for a min-heap on MergeKey.
  struct PendingAfter {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      return b.key < a.key;
    }
  };

  struct Input {
    Input(MultiTailer* owner, std::uint32_t index, std::string file_path,
          const TailConfig& tail_config);
    LineDecoder decoder;
    LogTailer tailer;
    std::uint64_t seq = 0;       ///< per-file arrival counter
    MergeKey frontier;           ///< key of the newest decoded record
    bool has_frontier = false;
  };

  void enqueue(std::uint32_t file, httplog::LogRecord&& record);
  void emit_ready();
  void emit_top();
  /// Hands the partial out-batch downstream (batch mode; no-op when empty).
  void flush_out_batch();

  Config config_;
  RecordSink sink_;
  BatchSink batch_sink_;            ///< non-null = batch mode
  std::size_t batch_records_ = 0;
  BatchPool* batch_pool_ = nullptr;
  RecordBatch out_batch_;  ///< in-progress batch (empty between calls)
  std::vector<std::unique_ptr<Input>> inputs_;
  std::vector<Pending> heap_;
  std::uint64_t late_records_ = 0;
  std::uint64_t forced_emits_ = 0;
  std::int64_t last_emitted_us_ = std::numeric_limits<std::int64_t>::min();
  bool emitted_any_ = false;
};

}  // namespace divscrape::pipeline
