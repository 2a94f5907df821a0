// Categorical counters used throughout the analysis layer (per-status and
// per-reason breakdowns) and the Shannon entropy the labeller reads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/state.hpp"

namespace divscrape::stats {

/// Counter over arbitrary ordered keys (e.g. HTTP status codes). Thin map
/// wrapper with merge support and sorted-by-count extraction for reports.
template <typename Key>
class Counter {
 public:
  void add(const Key& k, std::uint64_t n = 1) { counts_[k] += n; }

  [[nodiscard]] std::uint64_t count(const Key& k) const {
    const auto it = counts_.find(k);
    return it == counts_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const auto& [k, v] : counts_) t += v;
    return t;
  }

  [[nodiscard]] std::size_t distinct() const { return counts_.size(); }
  [[nodiscard]] bool empty() const { return counts_.empty(); }

  void merge(const Counter& other) {
    for (const auto& [k, v] : other.counts_) counts_[k] += v;
  }

  /// (key, count) pairs sorted by descending count, ties by ascending key —
  /// the order the paper's per-status tables use.
  [[nodiscard]] std::vector<std::pair<Key, std::uint64_t>> by_count() const {
    std::vector<std::pair<Key, std::uint64_t>> out(counts_.begin(),
                                                   counts_.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    return out;
  }

  [[nodiscard]] auto begin() const { return counts_.begin(); }
  [[nodiscard]] auto end() const { return counts_.end(); }

  /// Dump/restore; the backing map is ordered, so serialization is already
  /// deterministic for identical contents.
  void save_state(util::StateWriter& w) const {
    w.u64(counts_.size());
    for (const auto& [k, v] : counts_) {
      util::put_value(w, k);
      w.u64(v);
    }
  }
  [[nodiscard]] bool load_state(util::StateReader& r) {
    counts_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      Key k{};
      if (!util::get_value(r, k)) return false;
      counts_[k] = r.u64();
    }
    return r.ok();
  }

 private:
  std::map<Key, std::uint64_t> counts_;
};

/// Shannon entropy (bits) of a categorical counter; 0 for empty counters.
/// Used by the labeller: human navigation has high path entropy, systematic
/// scraping of a template URL has low entropy.
template <typename Key>
[[nodiscard]] double shannon_entropy(const Counter<Key>& counter) {
  const double total = static_cast<double>(counter.total());
  if (total == 0.0) return 0.0;
  double h = 0.0;
  for (const auto& [k, v] : counter) {
    if (v == 0) continue;
    const double p = static_cast<double>(v) / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace divscrape::stats
