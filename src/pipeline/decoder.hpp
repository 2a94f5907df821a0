// LineDecoder: the parse half of the ingest path, split out of ReplayEngine
// so byte producers (LogTailer) and record consumers (ReplayEngine's
// detector pool, MultiTailer's time-ordered merge, ShardedPipeline) can be
// composed freely. One decoder = one byte stream: it owns the LineFramer,
// the CLF parse, and the lines/parsed/skipped accounting, and parses every
// line straight into RecordBatch slots handed to a caller-supplied
// callback. It does NOT stamp ua_token, pace, or touch detectors — that is
// the dispatch stage's job (ReplayEngine::process_batch, or a sharded
// sink's interner).
//
// The decoder also owns the one piece of cross-layer bookkeeping a tailer
// cannot do alone: incarnation-boundary tracking. When a rotation boundary
// falls inside the buffered partial line, the tailer calls
// mark_incarnation_boundary(); if the line that partial eventually
// completes into fails to parse, the stitch was bogus — the partial's real
// continuation lived in a log incarnation we never saw (the double-
// rotation-between-polls window) — and boundary_skips() counts it.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "httplog/clf.hpp"
#include "httplog/framing.hpp"
#include "httplog/record.hpp"
#include "pipeline/record_batch.hpp"

namespace divscrape::pipeline {

/// Cumulative framing/parsing accounting for one ingest stream.
struct ReplayStats {
  std::uint64_t lines = 0;
  std::uint64_t parsed = 0;
  std::uint64_t skipped = 0;
  double wall_seconds = 0.0;
};

class LineDecoder {
 public:
  using BatchFn = std::function<void(RecordBatch&&)>;

  /// Lines are parsed straight into RecordBatch slots and handed to
  /// `on_batch` every `batch_records` records. When `pool` is given, fresh
  /// batches are acquired from it — wire it to the consumer's recycle side
  /// so slot string storage stays warm.
  ///
  /// Checkpoint invariant: the in-progress batch never outlives the call
  /// that filled it — feed() and finish_stream() flush a partial batch
  /// before returning. A tail checkpoint taken between feed() calls
  /// therefore covers exactly the records already handed downstream; no
  /// record hides in the decoder.
  LineDecoder(BatchFn on_batch, std::size_t batch_records,
              BatchPool* pool = nullptr);

  LineDecoder(const LineDecoder&) = delete;
  LineDecoder& operator=(const LineDecoder&) = delete;

  /// Frames the chunk into lines and decodes every line completed so far;
  /// the trailing partial is held until its newline arrives. Safe to call
  /// with chunks split at any byte boundary. Returns records parsed from
  /// this chunk.
  std::uint64_t feed(std::string_view chunk);

  /// Declares end-of-stream: an unterminated trailing partial line (if
  /// any) is decoded as a complete line. Returns 1 if a line was flushed.
  std::uint64_t finish_stream();

  /// True while an unterminated partial line is buffered.
  [[nodiscard]] bool has_partial_line() const noexcept {
    return framer_.has_partial();
  }
  /// Size of that partial in bytes; a resume checkpoint must subtract it
  /// from the fed-byte count (those bytes were accepted, not ingested).
  [[nodiscard]] std::size_t partial_bytes() const noexcept {
    return framer_.buffered();
  }
  /// Drops the buffered partial without decoding it (file truncated out
  /// from under the producer). Also clears a pending boundary mark.
  void drop_partial_line() {
    framer_.reset();
    partial_spans_boundary_ = false;
  }

  /// The producer observed an incarnation boundary (rotation) while a
  /// partial line was buffered: the next completed line is a stitch of
  /// bytes from two file incarnations. If it fails to parse, the stitch
  /// was presumably wrong and boundary_skips() is bumped.
  void mark_incarnation_boundary() noexcept {
    if (framer_.has_partial()) partial_spans_boundary_ = true;
  }
  /// Boundary-spanning stitched lines that failed to parse — the observable
  /// signature of a lost middle incarnation (double rotation between
  /// polls). Heuristic: a legitimately garbage line torn across a single
  /// rotation also counts; a lost incarnation whose stitch happens to
  /// parse does not.
  [[nodiscard]] std::uint64_t boundary_skips() const noexcept {
    return boundary_skips_;
  }

  /// Cumulative accounting across every feed()/finish_stream() call.
  /// wall_seconds is owned by batch callers (see add_wall_seconds).
  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }
  /// Batch replay() folds its wall-clock time in here.
  void add_wall_seconds(double seconds) noexcept {
    stats_.wall_seconds += seconds;
  }

 private:
  void decode_line(std::string_view line);
  /// Hands the in-progress batch downstream (no-op when empty) and starts
  /// a fresh one from the pool.
  void flush_batch();

  httplog::LineFramer framer_;
  httplog::ClfParser parser_;  ///< streaming parser: timestamp memo stays warm
  BatchFn on_batch_;
  std::size_t batch_records_ = 0;
  BatchPool* pool_ = nullptr;    ///< optional recycle source
  RecordBatch batch_;            ///< in-progress batch (empty between feeds)
  ReplayStats stats_;
  bool partial_spans_boundary_ = false;
  std::uint64_t boundary_skips_ = 0;
};

}  // namespace divscrape::pipeline
