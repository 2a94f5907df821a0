#include "pipeline/detection_stage.hpp"

#include <utility>

#include "util/state.hpp"

namespace divscrape::pipeline {

DetectionStage::DetectionStage(const PoolFactory& factory,
                               std::size_t shards) {
  if (shards > 1) {
    sharded_ = std::make_unique<ShardedPipeline>(factory, shards);
  } else {
    pool_ = factory();
    engine_ = std::make_unique<ReplayEngine>(pool_);
  }
}

DetectionStage::~DetectionStage() = default;

void DetectionStage::process_batch(RecordBatch&& batch) {
  if (sharded_) {
    for (auto& record : batch)
      record.ua_token = ua_tokens_.intern(record.user_agent);
    sharded_->process_batch(std::move(batch));
    return;
  }
  engine_->process_batch(batch);
  engine_batches_.recycle(std::move(batch));
}

BatchPool& DetectionStage::batch_pool() noexcept {
  return sharded_ ? sharded_->batch_pool() : engine_batches_;
}

void DetectionStage::drain() {
  if (sharded_) sharded_->drain();
}

core::JointResults DetectionStage::finish() {
  if (sharded_) return sharded_->finish();
  return engine_->results();
}

const core::JointResults* DetectionStage::live_results() const noexcept {
  return engine_ ? &engine_->results() : nullptr;
}

std::vector<std::uint64_t> DetectionStage::shard_processed() const {
  if (!sharded_) return {};
  return sharded_->shard_processed();
}

bool DetectionStage::save_state(util::StateWriter& w, bool mode_byte) {
  if (mode_byte) w.u8(sharded_ ? 1 : 0);
  if (!sharded_) return engine_->save_state(w);
  ua_tokens_.save_state(w);
  return sharded_->save_state(w);
}

bool DetectionStage::load_state(const std::string& blob) {
  util::StateReader r(blob);
  const std::uint8_t mode = r.u8();
  if (!r.ok() || mode != (sharded_ ? 1 : 0)) return false;
  if (sharded_) {
    if (!ua_tokens_.load_state(r) || !sharded_->load_state(r)) return false;
  } else if (!engine_->load_state(r)) {
    return false;
  }
  return r.at_end();
}

}  // namespace divscrape::pipeline
