// Per-batch spans recorded by the benchmark around its calls into the
// program. One Tracer per phase, used from one thread; spans stay in memory
// and are written as a Chrome trace-event document once the run ends. A
// disabled tracer records nothing, so untraced and traced runs share one
// loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opens on construction, closes on destruction. Nested
  /// scopes become children of the innermost open one.
  class Scope {
   public:
    Scope(Tracer& tracer, int name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(Span{name, now_ns(), 0, tracer_.open_});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
      span.end_ns = now_ns();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Drops the open span, and any children it has, once its outcome
    /// shows it is not worth keeping on its own (an empty poll).
    void discard() {
      if (index_ < 0) return;
      tracer_.open_ = tracer_.spans_[static_cast<std::size_t>(index_)].parent;
      tracer_.spans_.resize(static_cast<std::size_t>(index_));
      index_ = -1;
    }

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Records an already-finished interval under the innermost open span.
  void record(int name, std::int64_t start_ns, std::int64_t end_ns) {
    if (enabled_) spans_.push_back(Span{name, start_ns, end_ns, open_});
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Writes the spans of several tracers (one "thread" row per phase) as
/// complete ("X") trace events; `names` maps span names to strings.
/// Returns false when the file cannot be written.
inline bool write_chrome_trace(
    const std::string& path, const std::vector<std::string>& names,
    const std::vector<std::pair<std::string, const Tracer*>>& phases) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& phase : phases) {
    if (!phase.second->spans().empty()) {
      origin = std::min(origin, phase.second->spans().front().start_ns);
    }
  }
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t tid = 0; tid < phases.size(); ++tid) {
    std::fprintf(out,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}\n",
                 tid == 0 ? "" : ",", tid, phases[tid].first.c_str());
    const auto& spans = phases[tid].second->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   names.at(static_cast<std::size_t>(s.name)).c_str(), tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
