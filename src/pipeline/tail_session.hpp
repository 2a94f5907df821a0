// TailSession: the one implementation of open -> resume -> poll -> persist
// -> finish for tailing N >= 1 logs. Every `divscrape tail` and the chaos
// soak drive it, so the soak's kill-and-resume oracle covers the code the
// CLI ships.
//
// A MultiTailer feeds one DetectionStage (a ReplayEngine, or with
// shards > 1 a ShardedPipeline behind the stage's own UA interner). Under
// `checkpoint_dir` a persist writes one checkpoint_file_for() file per
// log, then tail_session.state.json last (TailSessionState; its blob is
// the stage's state with its mode byte). Under `checkpoint_file` it writes
// the one log's Checkpoint v3 with the bare engine blob as `state`: the
// single-file layout of older builds, byte for byte.
//
// resume() is warm only when every offset embedded in the session (or
// checkpoint) file is honored AND the blob restores completely. Anything
// else rebuilds the consumer from the pool factory, so no half-restored
// state survives, and resumes each log cold from its own checkpoint file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/joiner.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/detection_stage.hpp"
#include "pipeline/multi_tailer.hpp"

namespace divscrape::pipeline {

/// Per-log checkpoint file inside a checkpoint dir: the log's path with
/// every separator flattened for readability, plus a hash of the exact
/// path so distinct logs can never collide ("/logs/a/b.log" vs
/// "/logs/a_b.log" flatten identically). Stable across invocations.
[[nodiscard]] std::string checkpoint_file_for(const std::string& dir,
                                              const std::string& log_path);

/// `checkpoint_file` takes one log, one shard and no `checkpoint_dir`;
/// TailSession throws std::invalid_argument otherwise.
struct TailSessionConfig {
  std::vector<std::string> paths;  ///< logs to tail, in merge-index order
  std::string checkpoint_dir;      ///< per-log files + session file
  std::string checkpoint_file;     ///< one log's Checkpoint v3 file
  PoolFactory factory;             ///< one detector pool (per shard)
  std::size_t shards = 1;          ///< > 1 = ShardedPipeline consumer
  std::int64_t reorder_window_us = 2 * httplog::kMicrosPerSecond;
};

/// What TailSession::resume() did, for the caller to report.
struct TailResume {
  enum class Outcome {
    kNoSession,      ///< no readable session (or single checkpoint) file
    kWarm,           ///< embedded offsets honored, detection state restored
    kStateRejected,  ///< same logs, but an offset or the blob did not hold
    kOtherLogSet,    ///< the session file names a different set of logs
  };
  struct Log {
    std::string from;  ///< file the offset came from; empty = fresh start
    std::uint64_t offset = 0;
    std::uint64_t parsed = 0;  ///< records ingested before the cut
    bool honored = false;      ///< false = file replaced, read from 0
  };
  Outcome outcome = Outcome::kNoSession;
  std::string session_path;  ///< the session file, or the checkpoint_file
  std::vector<Log> logs;  ///< one per tailed log, in tail order

  [[nodiscard]] bool warm() const noexcept {
    return outcome == Outcome::kWarm;
  }
};

class TailSession {
 public:
  explicit TailSession(TailSessionConfig config);
  ~TailSession();

  TailSession(const TailSession&) = delete;
  TailSession& operator=(const TailSession&) = delete;

  /// Call once, before the first poll(); a no-op when nothing persists.
  TailResume resume();

  std::size_t poll();      ///< bytes consumed (0 = caught up)
  std::uint64_t flush();   ///< emits the merge queues (idle escape hatch)

  /// Quiescent cut: flush the merge and drain the shards, then write the
  /// checkpoint file(s). Save failures go to stderr; the tail keeps going.
  void persist();

  /// Flushes and returns the final results; the session is spent after.
  [[nodiscard]] core::JointResults finish();

  /// The consumer, for live_results() and shard_processed().
  [[nodiscard]] const DetectionStage& stage() const noexcept {
    return *stage_;
  }
  [[nodiscard]] const MultiTailer& tailer() const noexcept { return *tailer_; }

 private:
  /// (Re)builds the stage and the tailer feeding it: what a kill takes
  /// down and a failed restore rebuilds together.
  void build();
  /// Warm restore from the offsets embedded in the session file — never
  /// the per-log files, which may describe a newer cut — and the blob only
  /// behind fully honored offsets: a replaced file restarts at 0 and
  /// would replay records the blob already counted. On false the caller
  /// rebuilds, so a partial restore is harmless.
  [[nodiscard]] bool restore(const TailSessionState& session, TailResume& out);

  TailSessionConfig config_;
  std::string session_path_;  ///< empty = nothing resumed or persisted
  std::vector<std::string> checkpoint_paths_;  ///< per log, in tail order
  std::unique_ptr<DetectionStage> stage_;
  std::unique_ptr<MultiTailer> tailer_;  ///< its sink references stage_
};

}  // namespace divscrape::pipeline
