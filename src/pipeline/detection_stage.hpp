// DetectionStage: the one detection consumer every `tail` (through
// TailSession) and `simulate --detect` build, and the only place a UA
// token is minted on those paths. With one shard it is a ReplayEngine over
// one pool, which stamps each record itself; with shards > 1 it stamps each
// batch from its own StringInterner on the caller's thread and hands it to
// a ShardedPipeline, so every shard keys its detectors by one token space.
// Producers acquire batches from batch_pool(), which closes the recycle
// loop of whichever consumer runs.
//
// save_state() writes an optional mode byte (0 = engine, 1 = interner +
// shards) and then that mode's component states. TailSessionState blobs
// carry the mode byte; the single-file Checkpoint's blob is the bare
// engine state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/joiner.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "util/interner.hpp"

namespace divscrape::pipeline {

class DetectionStage {
 public:
  /// `shards` >= 1; the factory builds one detector pool per shard.
  DetectionStage(const PoolFactory& factory, std::size_t shards);
  ~DetectionStage();

  DetectionStage(const DetectionStage&) = delete;
  DetectionStage& operator=(const DetectionStage&) = delete;

  /// Stamps and evaluates the batch; it ends up recycled into batch_pool().
  void process_batch(RecordBatch&& batch);
  [[nodiscard]] BatchPool& batch_pool() noexcept;

  /// Barrier: every batch handed in so far has been evaluated.
  void drain();
  /// The final results; the stage is spent after.
  [[nodiscard]] core::JointResults finish();

  /// The sequential engine's running results; nullptr when sharded
  /// (per-shard results merge only in finish()).
  [[nodiscard]] const core::JointResults* live_results() const noexcept;
  /// Records each shard evaluated (see ShardedPipeline::shard_processed());
  /// empty when sequential.
  [[nodiscard]] std::vector<std::uint64_t> shard_processed() const;

  /// False, with nothing written, when a pool member has no state support.
  [[nodiscard]] bool save_state(util::StateWriter& w, bool mode_byte);
  /// Restores a blob that starts with the mode byte; call before any batch.
  /// On false the stage is half-restored and must be rebuilt.
  [[nodiscard]] bool load_state(const std::string& blob);

 private:
  std::vector<std::unique_ptr<detectors::Detector>> pool_;
  std::unique_ptr<ReplayEngine> engine_;
  BatchPool engine_batches_;       ///< the engine's recycle loop
  util::StringInterner ua_tokens_;  ///< the sharded path stamps here
  std::unique_ptr<ShardedPipeline> sharded_;
};

}  // namespace divscrape::pipeline
