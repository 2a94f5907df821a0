// RecordBatch: the unit of inter-layer record transfer — a contiguous,
// arena-style block of LogRecords that producers fill and consumers hand
// back for reuse.
//
// ## Why batches
//
// Moving records one at a time between layers (decoder -> merge -> shard
// ring) pays a per-record handoff cost that dominates once decode
// and detection are fast: a mutex op, a push_back, and usually five string
// allocations per record per hop. A batch amortizes every one of those
// over ~a thousand records, and the consumer walks a contiguous array in
// time order — the access pattern the detectors' one-entry client memos
// were built for.
//
// ## The arena contract
//
// A batch owns a vector of record *slots* plus a fill count. clear() only
// resets the count: the slots — and crucially the heap buffers of their
// std::string fields — stay allocated. Producers refill slots with
// copy-assignment (append_slot() = record), which std::string implements
// as a byte copy into the existing buffer, so a recycled batch ingests a
// whole new window of records with ZERO steady-state allocations. This is
// why producers should prefer copy-assign into a slot over move-assign:
// a move would steal the source's buffer and throw away the slot's warm
// one, reintroducing an allocation on the next reuse.
//
// Batches are move-only (they carry megabytes of string arena; an
// accidental copy would be a bug) and circulate through a BatchPool: the
// consumer recycles finished batches, the producer acquires warm ones.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "httplog/record.hpp"

namespace divscrape::pipeline {

class RecordBatch {
 public:
  RecordBatch() = default;
  RecordBatch(RecordBatch&&) noexcept = default;
  RecordBatch& operator=(RecordBatch&&) noexcept = default;
  RecordBatch(const RecordBatch&) = delete;
  RecordBatch& operator=(const RecordBatch&) = delete;

  /// Returns the next slot to fill, growing the arena if every slot is
  /// live. The slot holds whatever record last occupied it — callers
  /// overwrite every field (copy-assign a whole record, or parse into it:
  /// ClfParser::parse resets all fields including the sidecar).
  [[nodiscard]] httplog::LogRecord& append_slot() {
    if (size_ == slots_.size()) slots_.emplace_back();
    return slots_[size_++];
  }

  /// Un-appends the most recent slot (a parse that failed after claiming
  /// one). The slot's storage stays warm for the next append.
  void rollback_last() noexcept { --size_; }

  /// Forgets the records but keeps every slot's string storage — the
  /// recycle half of the arena contract.
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots ever allocated (the arena high-water mark).
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

  [[nodiscard]] httplog::LogRecord* begin() noexcept { return slots_.data(); }
  [[nodiscard]] httplog::LogRecord* end() noexcept {
    return slots_.data() + size_;
  }
  [[nodiscard]] const httplog::LogRecord* begin() const noexcept {
    return slots_.data();
  }
  [[nodiscard]] const httplog::LogRecord* end() const noexcept {
    return slots_.data() + size_;
  }
  [[nodiscard]] httplog::LogRecord& operator[](std::size_t i) noexcept {
    return slots_[i];
  }
  [[nodiscard]] const httplog::LogRecord& operator[](
      std::size_t i) const noexcept {
    return slots_[i];
  }

 private:
  std::vector<httplog::LogRecord> slots_;
  std::size_t size_ = 0;
};

/// Thread-safe free list closing the producer/consumer recycle loop. The
/// lock is taken once per *batch*, so its cost is amortized over ~a
/// thousand records; the population is bounded by the number of batches in
/// flight (ring capacities + per-stage pending batches), never by stream
/// length.
class BatchPool {
 public:
  /// A warm recycled batch if one is idle, else a fresh empty one.
  [[nodiscard]] RecordBatch acquire() {
    std::lock_guard lock(mutex_);
    if (free_.empty()) return RecordBatch{};
    RecordBatch batch = std::move(free_.back());
    free_.pop_back();
    return batch;
  }

  /// Clears the batch (keeping its arena) and shelves it for reuse.
  void recycle(RecordBatch&& batch) {
    batch.clear();
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(batch));
  }

  [[nodiscard]] std::size_t idle() const {
    std::lock_guard lock(mutex_);
    return free_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<RecordBatch> free_;
};

}  // namespace divscrape::pipeline
