// ReplayEngine: drives a detector pool from a recorded CLF log — the
// deployment mode the paper's tools actually ran in (tailing Apache access
// logs). Two ingest surfaces share one stamping/pacing/dispatch path:
//
//   * replay(istream): batch mode over a complete stream. At EOF a final
//     line without a trailing newline is flushed as a complete line — the
//     historical getline behavior, kept deliberately (a closed log file's
//     last line is done growing, however it ended).
//   * process_batch(batch): the seam for producers that parsed elsewhere
//     (the multi-file merge layer decodes each log with its own
//     LineDecoder and emits one time-ordered batch stream). The engine
//     stamps, paces and dispatches exactly as it does for records it
//     parsed itself, so "N decoders + merge + engine" equals "one engine
//     fed the merged bytes".
//
// Incremental byte ingest for live tailing goes through decoder(): its
// feed(chunk) accepts arbitrary byte chunks (torn anywhere, including
// inside a CRLF pair) and dispatches only fully '\n'-terminated lines,
// holding the trailing partial until its newline arrives; its
// finish_stream() is the explicit end-of-stream declaration that flushes
// the partial — tail mode never calls it while the file may still grow.
//
// The byte-level framing/parsing lives in LineDecoder (decoder.hpp); the
// engine owns the dispatch stage: UA-token stamping, pacing, and the
// AlertJoiner. Both surfaces support as-fast-as-possible replay and
// time-scaled pacing for live demos.
#pragma once

#include <chrono>
#include <cstdint>
#include <istream>
#include <memory>
#include <vector>

#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "httplog/pacer.hpp"
#include "pipeline/decoder.hpp"
#include "util/interner.hpp"

namespace divscrape::pipeline {

class ReplayEngine {
 public:
  /// `time_scale`: 0 replays as fast as possible; x > 0 sleeps so that one
  /// simulated second takes 1/x wall seconds (e.g. 60 = minute-per-second).
  /// Pacing is anchored at the first record the engine ever ingests.
  ///
  /// The pool is reset() on construction (mirroring core::run_experiment):
  /// the engine stamps records with tokens from its own interner, and any
  /// token-keyed detector state from a previous source would be meaningless
  /// — or worse, silently wrong — under this engine's token space. Repeated
  /// replay()/decoder() ingests on one engine share the interner and
  /// accumulate state (the multi-file log-tailing use case).
  explicit ReplayEngine(
      const std::vector<std::unique_ptr<detectors::Detector>>& pool,
      double time_scale = 0.0);

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replays every parseable record of the stream through the pool,
  /// including an unterminated final line. Returns the stats delta for
  /// this stream (wall_seconds covers just this call).
  ReplayStats replay(std::istream& in);

  /// Batch-level ingest: stamps the UA token, paces, and dispatches every
  /// record of the batch in order. The caller keeps the batch (records are
  /// read in place; only ua_token is stamped), so it can recycle the
  /// arena. This is the engine's own inner loop — replay() and decoder()
  /// parse into batches and dispatch through here. Records processed from
  /// an outside batch do NOT appear in stats() — parse accounting belongs
  /// to whichever decoder parsed them.
  void process_batch(RecordBatch& batch);

  /// True while an unterminated partial line is buffered.
  [[nodiscard]] bool has_partial_line() const noexcept {
    return decoder_.has_partial_line();
  }

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
  /// accounting is the tailer checkpoint's job, and the pacing anchor stays
  /// cold (a resumed live tail re-anchors at its first record). Returns
  /// false — writing nothing — when a pool member doesn't support state
  /// serialization.
  [[nodiscard]] bool save_state(util::StateWriter& w) const;
  /// Restores from save_state() output; call before any ingest.
  /// On failure the engine is reset cold and false is returned.
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  core::AlertJoiner joiner_;
  util::StringInterner ua_tokens_;  ///< stamps records at dispatch
  /// Arena loop for the engine's own parse path: the decoder acquires
  /// batches here and process_batch's caller lambda recycles them, so the
  /// steady state reuses one warm batch.
  BatchPool batch_pool_;
  LineDecoder decoder_;
  httplog::Pacer pacer_;
  double time_scale_;
};

}  // namespace divscrape::pipeline
