#include "pipeline/multi_tailer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace divscrape::pipeline {

MultiTailer::Input::Input(const TailConfig& tail, std::uint32_t file,
                          std::string file_path, std::size_t batch_records,
                          BatchPool* pool)
    : decoder(
          [this](RecordBatch&& batch) {
            // Runs on the decode thread: a batch goes to the caller as soon
            // as a newer one exists, so a long call streams.
            if (!newest.empty()) {
              Handoff handoff;
              handoff.batch = std::move(newest);
              worker->ready.push(std::move(handoff));
            }
            newest = std::move(batch);
          },
          batch_records, pool),
      tailer(std::move(file_path), decoder, tail),
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
      : cap > 0    ? std::min(cap, kBatchRecords)
                   : kBatchRecords;
  BatchPool* decode_pool =
      pass_through && batch_pool_ ? batch_pool_ : &queue_pool_;
  inputs_.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    inputs_.push_back(std::make_unique<Input>(
        config_.tail, static_cast<std::uint32_t>(i), std::move(paths[i]),
        decode_batch, decode_pool));
  }
}

MultiTailer::~MultiTailer() {
  // Closing both rings ends every pass: a thread waiting for a wake sees
  // the stream end, and one handing over a batch gets push()'s throw.
  for (auto& input : inputs_) {
    if (!input->worker) continue;
    input->worker->wake.close();
    input->worker->ready.close();
  }
  for (auto& input : inputs_) {
    if (input->worker) input->worker->thread.join();
  }
}

void MultiTailer::decode_loop(Input& input, Worker& worker) {
  try {
    std::size_t budget = 0;
    while (worker.wake.pop(budget)) {
      for (bool more = true; more;) {
        Handoff end;
        end.call_end = true;
        try {
          end.got = input.tailer.poll(budget);
        } catch (...) {
          end.error = std::current_exception();
        }
        end.batch = std::move(input.newest);
        more = !end.error && end.got >= budget;
        worker.ready.push(std::move(end));
      }
    }
  } catch (const std::logic_error&) {
    // push() after the destructor closed the ring: the tailer is going.
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
  const httplog::LogRecord& record = front[input.head];
  note_emitted(record.time.micros());
  // Copy-assign into the out slot's warm buffers, never swap: a swap would
  // trade string buffers between the queue batches a decode thread refills
  // and the out batches the consumer recycles, and glibc would strand the
  // freed buffers in per-thread arenas (see record_batch.hpp).
  out_batch_.append_slot() = record;
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
  // One read chunk per turn: the unit a decode thread hands over, small
  // enough that each log queues about one chunk.
  const std::size_t budget =
      std::max<std::size_t>(config_.tail.chunk_bytes, 1);
  for (auto& input : inputs_) {
    if (!input->worker) {
      // Published before the wake below, which orders it before the
      // thread's first use (the decoder callback reads it).
      auto worker = std::make_unique<Worker>();
      worker->thread = std::thread(&MultiTailer::decode_loop,
                                   std::ref(*input), std::ref(*worker));
      input->worker = std::move(worker);
    }
    input->at_eof = input->fresh = false;
    input->worker->wake.push(std::size_t{budget});
  }
  std::size_t total = 0;
  Handoff handoff;
  while (Input* next = next_to_read()) {
    // The log's next tailer call, as if made here: the merge sees the
    // same batches and byte counts whatever the decode threads' timing.
    do {
      (void)next->worker->ready.pop(handoff);
      if (handoff.error) std::rethrow_exception(handoff.error);
      if (!handoff.batch.empty())
        enqueue(next->index, std::move(handoff.batch));
    } while (!handoff.call_end);
    next->at_eof = handoff.got < budget;
    next->fresh |= handoff.got > 0;
    total += handoff.got;
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
