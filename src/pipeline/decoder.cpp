#include "pipeline/decoder.hpp"

#include <utility>

#include "httplog/clf.hpp"

namespace divscrape::pipeline {

LineDecoder::LineDecoder(BatchFn on_batch, std::size_t batch_records,
                         BatchPool* pool)
    : on_batch_(std::move(on_batch)),
      batch_records_(batch_records == 0 ? 1 : batch_records),
      pool_(pool) {}

void LineDecoder::flush_batch() {
  if (batch_.empty()) return;
  RecordBatch full = std::move(batch_);
  batch_ = pool_ ? pool_->acquire() : RecordBatch{};
  on_batch_(std::move(full));
}

void LineDecoder::decode_line(std::string_view line) {
  ++stats_.lines;
  const bool spanned_boundary = partial_spans_boundary_;
  partial_spans_boundary_ = false;
  // Parse straight into the batch slot: parse() overwrites every field,
  // and the slot's warm string buffers absorb the copy (arena contract).
  httplog::LogRecord& slot = batch_.append_slot();
  if (parser_.parse(line, slot) != httplog::ClfError::kNone) {
    batch_.rollback_last();
    ++stats_.skipped;
    if (spanned_boundary) ++boundary_skips_;
    return;
  }
  ++stats_.parsed;
  if (batch_.size() >= batch_records_) flush_batch();
}

std::uint64_t LineDecoder::feed(std::string_view chunk) {
  const std::uint64_t parsed_before = stats_.parsed;
  framer_.feed(chunk);
  std::string_view line;
  while (framer_.next(line)) decode_line(line);
  // Nothing parsed in this call may outlive it undelivered — a checkpoint
  // between feeds must cover these records.
  flush_batch();
  return stats_.parsed - parsed_before;
}

std::uint64_t LineDecoder::finish_stream() {
  std::string_view line;
  if (!framer_.take_partial(line)) return 0;
  decode_line(line);
  flush_batch();
  return 1;
}

}  // namespace divscrape::pipeline
