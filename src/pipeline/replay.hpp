// ReplayEngine: the one sequential consumer. It drives a detector pool
// over a time-ordered record stream: it stamps each record's UA token from
// its own interner, evaluates the pool through its AlertJoiner, and hands
// each record with its verdict row to an optional observer. The only other
// consumer is ShardedPipeline, whose workers each run their own joiner.
//
// Who drives it:
//
//   * `divscrape_cli analyze`: replay(istream) over a complete log. At EOF
//     a final line without a trailing newline is flushed as a complete line
//     (a closed log file's last line is done growing, however it ended).
//     The `--alerts` JSONL writer is the observer.
//   * eval::run_experiment and `divscrape_cli simulate --detect` (one
//     shard): process_batch(batch) over WorkloadEngine::run_batched's
//     batches. Generated records arrive stamped by the generator; the
//     engine re-stamps them from its own interner (one probe per record),
//     and the token space is not observable in results.
//   * TailSession with one shard: process_batch over MultiTailer's merged
//     batches, and decoder() for a single LogTailer. The engine stamps and
//     dispatches exactly as it does for records it parsed itself, so
//     "N decoders + merge + engine" equals "one engine fed the merged
//     bytes".
//
// Incremental byte ingest for live tailing goes through decoder(): its
// feed(chunk) accepts arbitrary byte chunks (torn anywhere, including
// inside a CRLF pair) and dispatches only fully '\n'-terminated lines,
// holding the trailing partial until its newline arrives; its
// finish_stream() is the explicit end-of-stream declaration that flushes
// the partial — tail mode never calls it while the file may still grow.
//
// The byte-level framing/parsing lives in LineDecoder (decoder.hpp); the
// engine owns the dispatch stage: UA-token stamping, the AlertJoiner and
// the observer.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "pipeline/decoder.hpp"
#include "util/interner.hpp"
#include "util/span.hpp"

namespace divscrape::pipeline {

/// Sees every record with the pool's verdict row, in pool order. Both are
/// valid for the call only.
using RecordObserver = std::function<void(
    const httplog::LogRecord&, divscrape::span<const detectors::Verdict>)>;

class ReplayEngine {
 public:
  /// The pool is reset() on construction: the engine stamps records with
  /// tokens from its own interner, and any token-keyed detector state from
  /// a previous source would be meaningless — or worse, silently wrong —
  /// under this engine's token space. Repeated replay()/decoder()/
  /// process_batch() ingests on one engine share the interner and
  /// accumulate state (the multi-file log-tailing use case). `observe`,
  /// when set, is called once per dispatched record, after the joiner has
  /// folded its verdicts in.
  explicit ReplayEngine(
      const std::vector<std::unique_ptr<detectors::Detector>>& pool,
      RecordObserver observe = {});

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replays every parseable record of the stream through the pool,
  /// including an unterminated final line. Returns the stats delta for
  /// this stream (wall_seconds covers just this call).
  ReplayStats replay(std::istream& in);

  /// Batch-level ingest: stamps the UA token, dispatches every record of
  /// the batch in order and shows each to the observer. The caller keeps
  /// the batch (records are read in place; only ua_token is stamped), so
  /// it can recycle the arena. This is the engine's own inner loop —
  /// replay() and decoder() parse into batches and dispatch through here.
  /// Records processed from an outside batch do NOT appear in stats() —
  /// parse accounting belongs to whichever decoder parsed them.
  void process_batch(RecordBatch& batch);

  /// Cumulative framing/parsing accounting across every replay() and
  /// decoder() ingest on this engine. wall_seconds accumulates batch
  /// replay() time only; decoder().feed() callers own their clock.
  [[nodiscard]] const ReplayStats& stats() const noexcept {
    return decoder_.stats();
  }

  /// The engine's byte-stream decoder — what a LogTailer attaches to, and
  /// the incremental feed()/finish_stream() surface for live ingest.
  [[nodiscard]] LineDecoder& decoder() noexcept { return decoder_; }

  [[nodiscard]] const core::JointResults& results() const noexcept {
    return joiner_.results();
  }

  /// Warm-checkpoint dump of the dispatch stage: the stamping interner (its
  /// tokens key every detector's per-client state, so it MUST travel with
  /// them) plus the joiner (detector states + results). Ingest-side decoder
  /// accounting is the tailer checkpoint's job. Returns
  /// false — writing nothing — when a pool member doesn't support state
  /// serialization.
  [[nodiscard]] bool save_state(util::StateWriter& w) const;
  /// Restores from save_state() output; call before any ingest.
  /// On failure the engine is reset cold and false is returned.
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  core::AlertJoiner joiner_;
  RecordObserver observe_;
  util::StringInterner ua_tokens_;  ///< stamps records at dispatch
  /// Arena loop for the engine's own parse path: the decoder acquires
  /// batches here and process_batch's caller lambda recycles them, so the
  /// steady state reuses one warm batch.
  BatchPool batch_pool_;
  LineDecoder decoder_;
};

}  // namespace divscrape::pipeline
