#include "pipeline/replay.hpp"

#include <utility>

namespace divscrape::pipeline {

namespace {
/// Granularity of the engine's internal parse->dispatch batches. Purely an
/// execution knob: the decoder flushes partial batches at every feed()
/// boundary, so batching is unobservable in results and checkpoints.
constexpr std::size_t kReplayBatchRecords = 1024;
}  // namespace

ReplayEngine::ReplayEngine(
    const std::vector<std::unique_ptr<detectors::Detector>>& pool,
    RecordObserver observe)
    : joiner_(pool),
      observe_(std::move(observe)),
      decoder_(
          [this](RecordBatch&& batch) {
            process_batch(batch);
            batch_pool_.recycle(std::move(batch));
          },
          kReplayBatchRecords, &batch_pool_) {
  for (const auto& detector : pool) detector->reset();
}

void ReplayEngine::process_batch(RecordBatch& batch) {
  for (auto& record : batch) {
    // Stamp here so every detector keys its state by this engine's token
    // instead of re-hashing the UA string.
    record.ua_token = ua_tokens_.intern(record.user_agent);
    const auto verdicts = joiner_.process(record);
    if (observe_) observe_(record, verdicts);
  }
}

bool ReplayEngine::save_state(util::StateWriter& w) const {
  util::StateWriter body;
  util::put_tag(body, 0x454E474Eu /* "ENGN" */, 1);
  ua_tokens_.save_state(body);
  if (!joiner_.save_state(body)) return false;
  w.str(body.buffer());
  return true;
}

bool ReplayEngine::load_state(util::StateReader& r) {
  const auto fail = [&] {
    ua_tokens_.clear();
    joiner_.reset();
    return false;
  };
  util::StateReader body(r.str());
  if (!r.ok()) return fail();
  if (!util::check_tag(body, 0x454E474Eu, 1)) return fail();
  if (!ua_tokens_.load_state(body)) return fail();
  if (!joiner_.load_state(body)) return fail();
  if (!body.ok() || !body.at_end()) return fail();
  return true;
}

ReplayStats ReplayEngine::replay(std::istream& in) {
  const ReplayStats before = decoder_.stats();
  decoder_.feed_stream(in);
  const ReplayStats& now = decoder_.stats();
  return {now.lines - before.lines, now.parsed - before.parsed,
          now.skipped - before.skipped};
}

}  // namespace divscrape::pipeline
