// TailSession: the one implementation of open -> resume -> poll -> persist
// -> finish for tailing N >= 1 logs. `divscrape tail --checkpoint-dir` (and
// every multi-log or sharded tail) and the chaos soak both drive it, so the
// soak's kill-and-resume oracle covers the code the CLI ships.
//
// Ingest is the MultiTailer batch sink; the consumer is the sequential
// ReplayEngine, or with shards > 1 a ShardedPipeline behind a dispatch
// StringInterner. Under `checkpoint_dir` a persist writes one
// checkpoint_file_for() file per log, then tail_session.state.json last
// (TailSessionState; its blob is one mode byte — 0 = engine, 1 = interner
// + shards — then that mode's component states).
//
// resume() is warm only when every offset embedded in the session file is
// honored AND the blob restores completely. Anything else rebuilds the
// consumer from the pool factory, so no half-restored state survives, and
// resumes each log cold from its own checkpoint file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/joiner.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/sharded.hpp"

namespace divscrape::pipeline {

/// Per-log checkpoint file inside a checkpoint dir: the log's path with
/// every separator flattened for readability, plus a hash of the exact
/// path so distinct logs can never collide ("/logs/a/b.log" vs
/// "/logs/a_b.log" flatten identically). Stable across invocations.
[[nodiscard]] std::string checkpoint_file_for(const std::string& dir,
                                              const std::string& log_path);

struct TailSessionConfig {
  std::vector<std::string> paths;  ///< logs to tail, in merge-index order
  std::string checkpoint_dir;      ///< empty = nothing resumed or persisted
  PoolFactory factory;             ///< one detector pool (per shard)
  std::size_t shards = 1;          ///< > 1 = ShardedPipeline consumer
  std::size_t dispatchers = 1;
  std::int64_t reorder_window_us = 2 * httplog::kMicrosPerSecond;
};

/// What TailSession::resume() did, for the caller to report.
struct TailResume {
  enum class Outcome {
    kNoSession,      ///< no readable session file
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
  std::string session_path;
  std::vector<Log> logs;  ///< one per tailed log, in tail order

  [[nodiscard]] bool warm() const noexcept {
    return outcome == Outcome::kWarm;
  }
};

class TailSession {
 public:
  /// Records per MultiTailer -> consumer handoff.
  static constexpr std::size_t kBatchRecords = 1024;

  explicit TailSession(TailSessionConfig config);
  ~TailSession();

  TailSession(const TailSession&) = delete;
  TailSession& operator=(const TailSession&) = delete;

  /// Call once, before the first poll(); a no-op without a checkpoint dir.
  TailResume resume();

  std::size_t poll();      ///< bytes consumed (0 = caught up)
  std::uint64_t flush();   ///< emits the merge queues (idle escape hatch)

  /// Quiescent cut: flush the merge and drain the shards, then write the
  /// checkpoint files. Save failures go to stderr; the tail keeps going.
  void persist();

  /// Flushes and returns the final results; the session is spent after.
  [[nodiscard]] core::JointResults finish();

  /// The sequential engine's running results; nullptr when sharded
  /// (per-shard results merge only in finish()).
  [[nodiscard]] const core::JointResults* live_results() const noexcept;
  [[nodiscard]] const MultiTailer& tailer() const noexcept;
  /// Records each shard evaluated in this incarnation (see
  /// ShardedPipeline::shard_processed()); empty when sequential.
  [[nodiscard]] std::vector<std::uint64_t> shard_processed() const;

 private:
  struct Ingest;

  TailSessionConfig config_;
  std::string session_path_;
  std::vector<std::string> checkpoint_paths_;  ///< per log, in tail order
  std::unique_ptr<Ingest> ingest_;
};

}  // namespace divscrape::pipeline
