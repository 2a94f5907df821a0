// The benchmark's own arithmetic: percentiles with their sample count,
// open-loop latency charged from each record's due time, and span self
// times. Header-only and free of divscrape types so the self-test can pin
// it on hand-made samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Latency samples as (value, how many records share it). Batch workloads
/// fold a whole pass into one sample; the live tail adds one per record.
class Samples {
 public:
  void add(double value, std::uint64_t count = 1) {
    if (count == 0) return;
    values_.emplace_back(value, count);
    total_ += count;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Nearest-rank percentile, q in (0, 1]: the smallest value v such that
  /// at least ceil(q * count) samples are <= v. 0 when empty.
  [[nodiscard]] double percentile(double q) {
    if (total_ == 0) return 0.0;
    std::sort(values_.begin(), values_.end());
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (const auto& [value, count] : values_) {
      seen += count;
      if (seen >= std::max<std::uint64_t>(rank, 1)) return value;
    }
    return values_.back().first;
  }

 private:
  std::vector<std::pair<double, std::uint64_t>> values_;
  std::uint64_t total_ = 0;
};

/// Median of plain values (mean of the middle pair for even counts).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One reader poll that folded records into results: it returned at
/// `done_ns`, after which `records_total` records had verdicts.
struct Ingest {
  std::int64_t done_ns = 0;
  std::uint64_t records_total = 0;
};

/// Open-loop write-to-verdict latency: record i was due at
/// start_ns + i * interval_ns and gets its verdict at the return of the
/// first poll whose records_total exceeds i. Charging from the due time
/// (not from when the writer actually wrote, nor from when the reader got
/// round to it) means a stalled reader also charges every record
/// scheduled behind the stall. Returns one latency in milliseconds per
/// record, in record order.
inline std::vector<double> open_loop_latencies(
    const std::vector<Ingest>& polls, std::int64_t start_ns,
    double interval_ns) {
  std::vector<double> out;
  if (!polls.empty()) out.reserve(polls.back().records_total);
  for (const Ingest& poll : polls) {
    for (std::uint64_t i = out.size(); i < poll.records_total; ++i) {
      const double due =
          static_cast<double>(start_ns) + static_cast<double>(i) * interval_ns;
      out.push_back((static_cast<double>(poll.done_ns) - due) / 1e6);
    }
  }
  return out;
}

/// Splits per-record latencies into consecutive windows of `window`
/// records (the last window absorbs a remainder shorter than `window`) and
/// returns each window's samples. Percentiles per window, then a median
/// over windows, keep a rare stall (host preemption, a checkpoint) that
/// hits a minority of windows from deciding the reported figure.
inline std::vector<Samples> windows_of(const std::vector<double>& latencies,
                                       std::size_t window) {
  std::vector<Samples> out;
  if (latencies.empty() || window == 0) return out;
  const std::size_t count = std::max<std::size_t>(1, latencies.size() / window);
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t end =
        w + 1 == count ? latencies.size() : (w + 1) * window;
    Samples samples;
    for (std::size_t i = w * window; i < end; ++i) samples.add(latencies[i]);
    out.push_back(std::move(samples));
  }
  return out;
}

/// One traced interval. `parent` indexes the enclosing span (-1 = root).
struct Span {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Per-name totals over a span list: inclusive time, self time (inclusive
/// minus the union of the direct children's intervals, clipped to the
/// parent) and the number of spans.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
};

inline std::map<int, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<int, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    SpanTotals& t = totals[s.name];
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - covered;
    ++t.count;
  }
  return totals;
}

}  // namespace perfbench
