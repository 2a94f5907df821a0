#include "pipeline/multi_tailer.hpp"

#include <algorithm>
#include <utility>

namespace divscrape::pipeline {

MultiTailer::Input::Input(MultiTailer* owner, std::uint32_t file,
                          std::string file_path, std::size_t batch_records,
                          BatchPool* pool)
    : decoder(
          [owner, file](RecordBatch&& batch) {
            owner->enqueue(file, std::move(batch));
          },
          batch_records, pool),
      tailer(std::move(file_path), decoder, owner->config_.tail),
      index(file) {}

MultiTailer::MultiTailer(std::vector<std::string> paths, BatchSink sink,
                         std::size_t batch_records, Config config,
                         BatchPool* pool)
    : config_(config),
      batch_sink_(std::move(sink)),
      batch_records_(batch_records == 0 ? 1 : batch_records),
      batch_pool_(pool) {
  // Queue batches no larger than the cap, so one decoded batch always fits;
  // one log's decoded batches are out batches (see enqueue).
  const std::size_t cap = config_.max_buffered_records;
  const bool pass_through = paths.size() == 1;
  const std::size_t decode_batch =
      pass_through ? batch_records_
      : cap > 0    ? std::min(cap, kQueueBatchRecords)
                   : kQueueBatchRecords;
  BatchPool* decode_pool =
      pass_through && batch_pool_ ? batch_pool_ : &queue_pool_;
  inputs_.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs_.push_back(std::make_unique<Input>(
        this, static_cast<std::uint32_t>(i), std::move(paths[i]),
        decode_batch, decode_pool));
  }
}

void MultiTailer::note_emitted(std::int64_t t) noexcept {
  if (t < last_emitted_us_) ++late_records_;  // below the emission front
  last_emitted_us_ = std::max(last_emitted_us_, t);
}

void MultiTailer::flush_out_batch() {
  if (out_batch_.empty()) return;
  RecordBatch full = std::move(out_batch_);
  out_batch_ = batch_pool_ ? batch_pool_->acquire() : RecordBatch{};
  batch_sink_(std::move(full));
}

void MultiTailer::enqueue(std::uint32_t file, RecordBatch&& batch) {
  if (inputs_.size() == 1) {
    // One log: the watermark is its own frontier, so the merge is the
    // identity and the decoded batch goes downstream whole, in file order.
    for (const httplog::LogRecord& record : batch)
      note_emitted(record.time.micros());
    batch_sink_(std::move(batch));
    return;
  }
  const std::size_t cap = config_.max_buffered_records;
  if (cap > 0 && buffered_ + batch.size() > cap) {
    // Memory backstop: make room by emitting the oldest heads, forced
    // when the watermark had not released them yet.
    const MergeKey bound = watermark(false);
    while (buffered_ + batch.size() > cap) {
      Input* next = min_head();
      if (next == nullptr) break;
      if (bound < head_key(*next)) ++forced_emits_;
      emit_head(*next);
    }
  }
  Input& input = *inputs_[file];
  // A record whose timestamp goes backwards never moves the frontier
  // back: the watermark is monotone.
  for (const httplog::LogRecord& record : batch)
    input.frontier_us = std::max(input.frontier_us, record.time.micros());
  newest_us_ = std::max(newest_us_, input.frontier_us);
  buffered_ += batch.size();
  input.queue.push_back(std::move(batch));
}

MultiTailer::MergeKey MultiTailer::head_key(const Input& input) noexcept {
  return {input.queue.front()[input.head].time.micros(), input.index};
}

MultiTailer::MergeKey MultiTailer::watermark(bool active_only) const {
  MergeKey lowest{std::numeric_limits<std::int64_t>::max(),
                  std::numeric_limits<std::uint32_t>::max()};
  for (const auto& input : inputs_) {
    if (active_only && input->at_eof && !input->fresh) continue;
    if (!input->has_frontier()) {
      if (!input->at_eof) return {std::numeric_limits<std::int64_t>::min(), 0};
      continue;
    }
    lowest = std::min(lowest, MergeKey{input->frontier_us, input->index});
  }
  return lowest;
}

MultiTailer::Input* MultiTailer::min_head() noexcept {
  Input* best = nullptr;
  std::int64_t best_us = 0;
  for (const auto& input : inputs_) {
    if (input->queue.empty()) continue;
    const std::int64_t t = input->queue.front()[input->head].time.micros();
    if (best == nullptr || t < best_us) {  // strict: lower file wins ties
      best = input.get();
      best_us = t;
    }
  }
  return best;
}

void MultiTailer::emit_head(Input& input) {
  RecordBatch& front = input.queue.front();
  httplog::LogRecord& record = front[input.head];
  note_emitted(record.time.micros());
  // Swap into the out slot: both batches keep warm string buffers and
  // nothing is copied or allocated (arena contract).
  std::swap(out_batch_.append_slot(), record);
  --buffered_;
  if (++input.head == front.size()) {
    queue_pool_.recycle(std::move(front));
    input.queue.pop_front();
    input.head = 0;
  }
  if (out_batch_.size() >= batch_records_) flush_out_batch();
}

void MultiTailer::emit_ready() {
  const MergeKey released = watermark(false);
  const MergeKey active = watermark(true);
  while (Input* next = min_head()) {
    const MergeKey head = head_key(*next);
    if (released < head) {
      // Held back. Force only past the window, and only on behalf of quiet
      // logs: one with unread bytes is read instead of being overtaken,
      // and one that just caught up may still be mid-burst.
      if (config_.reorder_window_us <= 0 || active < head ||
          newest_us_ - head.first <= config_.reorder_window_us) {
        break;
      }
      ++forced_emits_;
    }
    emit_head(*next);
  }
}

MultiTailer::Input* MultiTailer::next_to_read() noexcept {
  Input* lowest = nullptr;
  for (const auto& input : inputs_) {
    if (input->at_eof) continue;
    if (!input->has_frontier()) return input.get();
    if (lowest == nullptr || input->frontier_us < lowest->frontier_us)
      lowest = input.get();
  }
  return lowest;
}

std::size_t MultiTailer::poll() {
  // One read chunk per turn: small enough that a log's queued records are
  // still in cache when the merge moves them.
  const std::size_t budget =
      std::max<std::size_t>(config_.tail.chunk_bytes, 1);
  for (auto& input : inputs_) input->at_eof = input->fresh = false;
  std::size_t total = 0;
  while (Input* next = next_to_read()) {
    const std::size_t got = next->tailer.poll(budget);
    next->at_eof = got < budget;
    next->fresh |= got > 0;
    total += got;
    emit_ready();
  }
  // Released records never sit in a partial batch across calls (alert
  // latency + checkpoint coverage).
  flush_out_batch();
  return total;
}

std::uint64_t MultiTailer::flush() {
  std::uint64_t emitted = 0;
  while (Input* next = min_head()) {
    emit_head(*next);
    ++emitted;
  }
  flush_out_batch();
  return emitted;
}

bool MultiTailer::resume(std::size_t file, const Checkpoint& cp) {
  return inputs_.at(file)->tailer.resume(cp);
}

Checkpoint MultiTailer::checkpoint(std::size_t file) const {
  return inputs_.at(file)->tailer.checkpoint();
}

std::size_t MultiTailer::partial_lines() const noexcept {
  std::size_t held = 0;
  for (const auto& input : inputs_) held += input->decoder.has_partial_line();
  return held;
}

ReplayStats MultiTailer::stats() const {
  ReplayStats total;
  for (const auto& input : inputs_) {
    const ReplayStats& s = input->decoder.stats();
    total.lines += s.lines;
    total.parsed += s.parsed;
    total.skipped += s.skipped;
  }
  return total;
}

}  // namespace divscrape::pipeline
