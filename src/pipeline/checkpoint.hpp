// Resume checkpoints for live log tailing.
//
// A checkpoint records where ingest stopped — which file incarnation was
// being read (inode), the committed byte offset inside it, the cumulative
// framing/parsing accounting — and, since schema v3, the *detection state*
// at that offset: every detector's per-client state, the stamping interner
// token tables, and the accumulated JointResults, serialized as one binary
// blob (util/state.hpp) and embedded base64 in the same flat JSON object.
// Offset and state commit in a single util::write_file_atomic call, so they
// can never be observed torn apart: a crash mid-save leaves the previous
// (offset, state) pair intact as a unit.
//
// ## Resume contract
//
// *Ingest is exactly-once.* The committed offset only ever points at a
// line boundary: bytes buffered as an unterminated partial line are NOT
// covered by the checkpoint, so resuming re-reads them from the file.
// Provided the file below `offset` was not rewritten (guarded by the inode
// check — a mismatch restarts ingest at offset 0 of the new incarnation),
// no record is ever re-ingested and none is skipped. The `lines`/`parsed`/
// `skipped` counters therefore continue exactly where they left off.
//
// *Detection is warm when the state blob restores.* A v3 checkpoint whose
// blob loads cleanly resumes every session window, reputation entry and
// result counter mid-flight: the resumed run's JointResults are
// byte-identical to an uninterrupted run (proven by
// tests/pipeline_warm_resume_test.cpp, at kill points including mid-torn-
// write and straddling a rotation).
//
// *What stays cold even on a warm resume:*
//   - recomputable memo caches (the httplog::UaInfoCache classification
//     memo in Sentinel and Arcane) — excluded from the blob by design,
//     they repopulate on demand with identical contents;
//   - everything, when the blob is absent, truncated, or carries a
//     mismatched component version or config fingerprint: the loader
//     rejects the blob, the caller counts a warning, and detection
//     restarts cold — the pre-v3 behaviour, never a crash.
//
// ## Compat matrix
//
//   schema                   | loads? | offset resume | detection resume
//   -------------------------|--------|---------------|------------------
//   divscrape.checkpoint.v1  |  yes   | yes (no sig)  | cold
//   divscrape.checkpoint.v2  |  yes   | yes           | cold
//   divscrape.checkpoint.v3  |  yes   | yes           | warm (cold on a
//                            |        |               | rejected blob)
//
// v1 lacked sig_len/sig_hash/lost_incarnations (default 0 = "unknown", so
// resume skips the prefix-signature check); v2 lacked the state blob.
//
// Inside the blob every component carries its own tag version (see
// util/state.hpp), and a version mismatch rejects the blob, so these
// resume *cold* (offsets still honored, kStateRejected from TailSession):
//
//   component blob           | written by                 | resumes
//   -------------------------|----------------------------|--------
//   "SHRD" v1 (sharded)      | low-bit shard routing,     | cold
//                            | which left shards 1..N-1   |
//                            | idle at N = 2, 4, 8        |
//   "ARCN" v1 (Arcane)       | the per-path template memo | cold
//   "SHRD" v2, "ARCN" v2     | current                    | warm
//
// A v1 sharded blob must not restore: its clients sit on the shards the
// old routing chose, not those the current routing sends them to.
//
// TailSession writes every checkpoint. A single-file v3 blob (`tail
// --checkpoint`) is the bare ReplayEngine::save_state blob, no mode byte:
// the layout older builds wrote through LogTailer + ReplayEngine. Per-log
// files under a checkpoint dir carry none (TailSessionState holds it).
//
// ## Writer
//
// to_json() and save() build the document in one pass into one string
// (the base64 blob encoded in place, no stream, no escaped copy). The
// bytes are exactly those of the streaming core::JsonWriter serialization
// the v3 schemas were defined with, so this writer carries no schema
// version of its own: v3 files load whichever writer produced them.
// tests/pipeline_checkpoint_test.cpp ("CheckpointBytes") pins the bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace divscrape::pipeline {

struct Checkpoint {
  /// Inode of the file `offset` refers to (0 = unknown/not yet observed).
  /// On resume, an inode mismatch means the file was rotated or replaced
  /// while we were down: the offset is discarded and ingest restarts at 0.
  std::uint64_t inode = 0;
  /// Committed byte offset: everything below it was framed into complete
  /// lines and ingested. Always on a line boundary.
  std::uint64_t offset = 0;

  /// Content signature of the incarnation `offset` refers to: FNV-1a hash
  /// of the file's first `sig_len` bytes (up to 64; 0 = not yet captured).
  /// Catches what the inode check cannot: the same inode truncated and
  /// regrown past `offset` while we were away — resume verifies the prefix
  /// still matches before honoring the offset.
  std::uint64_t sig_len = 0;
  std::uint64_t sig_hash = 0;

  // Cumulative accounting across the whole tailing session (survives
  // rotations, which reset `offset` but never these).
  std::uint64_t lines = 0;
  std::uint64_t parsed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t rotations = 0;
  std::uint64_t truncations = 0;
  /// Rotations where the pre-rotation partial line's stitched completion
  /// failed to parse — the observable signature of a middle incarnation
  /// lost to a double rotation between polls (see tailer.hpp).
  std::uint64_t lost_incarnations = 0;

  /// Detection-state blob covering exactly the records below `offset`
  /// (raw bytes here; base64 in the JSON). Empty = none recorded: the
  /// resumer falls back to a cold detector start. Filled in single-file
  /// mode only (see above).
  std::string state;

  /// Serializes as one flat JSON object (schema divscrape.checkpoint.v3).
  [[nodiscard]] std::string to_json() const;
  /// Parses v3, v2 and v1 schemas (missing fields default to 0 / empty —
  /// see the compat matrix above). A v3 state blob that fails base64
  /// decoding is dropped (state empty, cold resume) rather than rejecting
  /// the whole checkpoint: a damaged blob must not lose the ingest offset.
  /// nullopt on malformed input or a schema mismatch.
  [[nodiscard]] static std::optional<Checkpoint> from_json(
      std::string_view json);

  /// Atomic save: writes `<path>.tmp` then renames over `path`.
  [[nodiscard]] bool save(const std::string& path) const;
  /// Loads and parses `path`; nullopt when missing or malformed.
  [[nodiscard]] static std::optional<Checkpoint> load(const std::string& path);

  friend bool operator==(const Checkpoint& a, const Checkpoint& b) noexcept {
    return a.inode == b.inode && a.offset == b.offset &&
           a.sig_len == b.sig_len && a.sig_hash == b.sig_hash &&
           a.lines == b.lines && a.parsed == b.parsed &&
           a.skipped == b.skipped && a.rotations == b.rotations &&
           a.truncations == b.truncations &&
           a.lost_incarnations == b.lost_incarnations && a.state == b.state;
  }
};

/// Multi-file warm-resume snapshot (`tail --checkpoint-dir`): one atomic
/// file embedding the per-log ingest checkpoints AND the shared detection
/// state. The per-log checkpoint files cannot carry the state — detection
/// state spans all logs, and N+1 separate files cannot be committed
/// atomically together. Instead the commit sequence is: per-log files
/// first (operator-visible, cold-compatible), then this session file last.
/// A crash between the two leaves a session file that is merely *older*
/// but internally consistent: warm resume honors the offsets embedded
/// HERE, ignoring any newer per-log files, so state and offsets always
/// describe the same cut of the stream.
struct TailSessionState {
  /// (log path, its ingest checkpoint at the snapshot), in tail order.
  /// The embedded checkpoints carry no state blobs of their own.
  std::vector<std::pair<std::string, Checkpoint>> logs;
  /// Detection-state blob for the whole session (raw bytes), covering
  /// exactly the records below the embedded offsets.
  std::string state;

  /// Serializes as JSON (schema divscrape.tail_session.v3).
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<TailSessionState> from_json(
      std::string_view json);

  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static std::optional<TailSessionState> load(
      const std::string& path);
};

}  // namespace divscrape::pipeline
