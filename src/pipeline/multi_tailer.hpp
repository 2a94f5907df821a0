// MultiTailer: multi-file live ingest — one LogTailer + LineDecoder per
// input log (one per vhost, as in the paper's deployment) merged into a
// single time-ordered record stream.
//
// ## Threads and ownership
//
// Each log has one decode thread, started by the first poll() and joined
// by the destructor (a tailer that is never polled starts none). It owns
// that log's LogTailer and LineDecoder: it reads, frames and parses one
// chunk per LogTailer::poll(budget) call and hands each decoded batch to
// the caller through a one-slot SpscRing, the call's last batch together
// with the call's byte count, then decodes the next chunk while the caller
// merges. A pass ends after the call that reads less than the budget
// (EOF); the thread then waits for the next poll(). The caller thread —
// the one calling poll() — owns the merge: the per-log queues, frontiers,
// watermark, out batch, counters and the sink, which is only ever called
// on the caller thread.
//
// poll() consumes each log's handoffs in the order its decode thread made
// them, and every merge decision happens on the caller exactly as if the
// caller had made each LogTailer::poll call itself at that point. The
// emitted stream, late_records(), forced_emits() and every checkpoint are
// therefore independent of thread timing. When poll() returns, every
// decode thread has delivered its pass and is idle, so between calls the
// caller may read or change tailer state: checkpoint(), stats(),
// partial_lines(), the rotation counters, resume() and flush(). Reading
// them from inside the sink, during poll(), is a data race. If poll()
// throws (a read or the sink failed; a decode thread's exception is
// rethrown on the caller), other decode threads may still be mid-pass:
// the tailer is spent and may only be destroyed.
//
// ## Merge model
//
// Each log's LineDecoder parses straight into warm RecordBatch slots from
// a tailer-owned pool, and the batches queue up per log in file order. A
// linear scan over the k queue heads (k is a handful of logs) picks the
// smallest (timestamp, file index) key and copies that record into the
// out batch. A head is released once it is at or below the watermark: the
// minimum frontier (newest timestamp decoded so far) over every log that
// has produced a record. When each log is time-ordered, as real access
// logs are, the output equals a batch replay of the per-log streams
// stable-sorted by (timestamp, file) — byte for byte, as the multi-file
// equivalence tests assert.
//
// ## Frontier-driven reads
//
// poll() takes one chunk (TailConfig::chunk_bytes) at a time: first from
// any log without a frontier, then always from the log with the lowest
// frontier that is not yet at EOF, releasing what the watermark allows
// after every chunk, until every log is at EOF. A catch-up over a backlog
// is therefore an exact merge, and each log buffers about one chunk in
// its queue — except behind a log whose backlog ends early, which holds
// the others' later records until it goes quiet (or the cap below). Each
// decode thread runs at most three decoded batches ahead of the merge:
// one in its ring, one it is handing over and one it is filling.
//
// ## Forcing and late records
//
// A log is quiet in a poll that found no new bytes in it. A head held back
// only by quiet logs is forced out once it trails the newest frontier by
// more than `reorder_window_us` (forced_emits()); a log with unread bytes
// is read instead, and one that had new bytes in this poll is not
// overtaken before the next. `max_buffered_records` is the memory
// backstop (a quiet log with the window off): before a decoded batch would
// pass the cap, the oldest heads are emitted, counted as forced when the
// watermark had not released them. The cap counts queued records, not the
// batches the decode threads hold ahead, each no larger than the cap. A
// record that arrives below the emission front is emitted in merge order
// and counted by late_records(). A log that has produced nothing yet does
// not hold the watermark.
//
// With one log the merge is the identity (the watermark is its own
// frontier): decoded batches, drawn from the consumer's pool, go to the
// sink whole; late records are still counted and nothing queues.
//
// Disorder within one log is tolerated, not repaired: a record whose
// timestamp goes backwards keeps its file position, the frontier never
// moves back, and the record counts as late if it leaves below the front.
//
// The watermark and the window move only with new records' simulated
// time, so callers own the wall-clock idle policy: call flush() once poll()
// has returned 0 for a while (the CLI flushes after two empty polls).
//
// ## Checkpoints
//
// checkpoint(i) delegates to file i's tailer; offsets cover every record
// already *decoded*, including those still queued. Persist only after
// flush() — the quiescent point, where no record is held in the tailer —
// so a crash cannot lose queued records the offsets already committed
// (TailSession::persist flushes first for exactly this reason). Between
// poll() calls no decoded record sits on a decode thread, so flush()
// reaches every one.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "httplog/timestamp.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/spsc_ring.hpp"
#include "pipeline/tailer.hpp"

namespace divscrape::pipeline {

struct MultiTailConfig {
  TailConfig tail;  ///< per-file tailer knobs (chunk sizes, read seam)
  /// Bounded reorder window (simulated time): a head held back only by
  /// quiet logs is force-emitted once it trails the newest frontier by
  /// more than this. <= 0 disables forcing (exact merge, unbounded
  /// time skew).
  std::int64_t reorder_window_us = 2 * httplog::kMicrosPerSecond;
  /// Memory backstop: records buffered across all logs never exceed this
  /// (see the class comment). Frontier-driven reads keep a catch-up far
  /// below it; 0 disables the cap.
  std::size_t max_buffered_records = 64 * 1024;
};

class MultiTailer {
 public:
  using Config = MultiTailConfig;
  /// Receives the merged stream framed into RecordBatches.
  using BatchSink = std::function<void(RecordBatch&&)>;

  /// One tailer per path; paths need not exist yet. Merged records are
  /// handed downstream `batch_records` at a time, in warm batch slots.
  /// Wire `pool` to the consumer's recycle side (e.g.
  /// &pipeline.batch_pool()) to close the arena loop. The sink must
  /// outlive the MultiTailer.
  MultiTailer(std::vector<std::string> paths, BatchSink sink,
              std::size_t batch_records, Config config = Config(),
              BatchPool* pool = nullptr);

  /// Stops and joins the decode threads.
  ~MultiTailer();

  MultiTailer(const MultiTailer&) = delete;
  MultiTailer& operator=(const MultiTailer&) = delete;

  /// Reads every log to EOF in frontier order (following rotations and
  /// truncations per LogTailer), emitting every merged record the
  /// watermark or reorder window releases along the way. Returns bytes
  /// consumed across all files (0 = fully caught up). Starts the decode
  /// threads on the first call; rethrows an exception a decode thread
  /// caught (see the class comment).
  std::size_t poll();

  /// Emits everything still buffered, in merge order — the quiescent
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

  /// Aggregate decode accounting across all files.
  [[nodiscard]] ReplayStats stats() const;
  [[nodiscard]] std::size_t buffered_records() const noexcept {
    return buffered_;
  }
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return late_records_;
  }
  [[nodiscard]] std::uint64_t forced_emits() const noexcept {
    return forced_emits_;
  }
  /// Logs holding an unterminated (un-ingested) partial line.
  [[nodiscard]] std::size_t partial_lines() const noexcept;
  [[nodiscard]] std::uint64_t rotations() const noexcept {
    return sum(&LogTailer::rotations);
  }
  [[nodiscard]] std::uint64_t truncations() const noexcept {
    return sum(&LogTailer::truncations);
  }
  [[nodiscard]] std::uint64_t lost_incarnations() const noexcept {
    return sum(&LogTailer::lost_incarnations);
  }
  [[nodiscard]] std::uint64_t read_errors() const noexcept {
    return sum(&LogTailer::read_errors);
  }

 private:
  /// Deterministic merge key (timestamp, file index); ties within one log
  /// keep file order.
  using MergeKey = std::pair<std::int64_t, std::uint32_t>;

  /// What a decode thread hands the caller: a decoded batch, and with a
  /// LogTailer::poll(budget) call's last batch, the end of that call.
  struct Handoff {
    RecordBatch batch;         ///< may be empty at a call's end
    bool call_end = false;
    std::size_t got = 0;       ///< at a call's end: bytes it consumed
    std::exception_ptr error;  ///< at a call's end: what it threw
  };

  /// A log's decode thread and its handoff rings: a pass's budget in,
  /// decoded batches out. Made by the first poll().
  struct Worker {
    SpscRing<std::size_t> wake{1};
    SpscRing<Handoff> ready{1};
    std::thread thread;
  };

  struct Input {
    Input(const TailConfig& tail, std::uint32_t file, std::string file_path,
          std::size_t batch_records, BatchPool* pool);
    // Decode-thread state during a pass; the caller's between polls.
    LineDecoder decoder;
    LogTailer tailer;
    RecordBatch newest;  ///< held back to travel with its call's end
    std::unique_ptr<Worker> worker;  ///< null until the first poll()
    // Caller-only merge state.
    std::uint32_t index;
    std::deque<RecordBatch> queue;  ///< decoded, not yet emitted, in order
    std::size_t head = 0;           ///< next record within queue.front()
    /// Newest timestamp decoded (a running max); min() until the first.
    std::int64_t frontier_us = std::numeric_limits<std::int64_t>::min();
    bool at_eof = true;             ///< read to EOF in the current poll
    bool fresh = false;             ///< had new bytes in the current poll
    [[nodiscard]] bool has_frontier() const noexcept {
      return frontier_us != std::numeric_limits<std::int64_t>::min();
    }
  };

  /// A per-log tailer counter, summed over the logs.
  template <typename Counter>
  [[nodiscard]] std::uint64_t sum(Counter counter) const noexcept {
    std::uint64_t total = 0;
    for (const auto& input : inputs_) total += (input->tailer.*counter)();
    return total;
  }
  /// A decode thread: one pass per wake, one chunk per tailer call.
  static void decode_loop(Input& input, Worker& worker);
  /// Queues a decoded batch behind file `file`'s records.
  void enqueue(std::uint32_t file, RecordBatch&& batch);
  /// Counts a record leaving below the emission front as late.
  void note_emitted(std::int64_t t) noexcept;
  /// Lowest key unread data could still carry: the minimum frontier over
  /// the logs (with `active_only`, over those not quiet: unread bytes left,
  /// or new bytes in this poll). A log with no record yet pins it at the
  /// bottom until it reaches EOF.
  [[nodiscard]] MergeKey watermark(bool active_only) const;
  /// The input whose queue head has the smallest key; nullptr when all
  /// queues are empty.
  [[nodiscard]] Input* min_head() noexcept;
  /// No-frontier logs first, then the lowest frontier; nullptr once every
  /// log is at EOF.
  [[nodiscard]] Input* next_to_read() noexcept;
  [[nodiscard]] static MergeKey head_key(const Input& input) noexcept;
  /// Emits what the watermark releases, then what the window may force.
  void emit_ready();
  /// Copies `input`'s head record into the out batch.
  void emit_head(Input& input);
  /// Hands the partial out-batch downstream (no-op when empty).
  void flush_out_batch();

  Config config_;
  BatchSink batch_sink_;
  std::size_t batch_records_;
  BatchPool* batch_pool_;
  RecordBatch out_batch_;  ///< in-progress batch (empty between calls)
  BatchPool queue_pool_;   ///< recycles the per-log queue batches
  std::vector<std::unique_ptr<Input>> inputs_;
  std::size_t buffered_ = 0;
  std::int64_t newest_us_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t late_records_ = 0;
  std::uint64_t forced_emits_ = 0;
  std::int64_t last_emitted_us_ = std::numeric_limits<std::int64_t>::min();
};

}  // namespace divscrape::pipeline
