// Self-test of the benchmark's arithmetic on hand-made samples:
// percentiles with their sample count, open-loop latency charged from the
// due time, latency windows, span self time with nested children, and the
// tracer's span bookkeeping. Exits nonzero on the
// first failed check (checks stay active in optimized builds).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles_on_known_samples() {
  perfbench::Samples s;
  for (int v = 1; v <= 100; ++v) s.add(v);
  check(s.count() == 100, "100 samples counted");
  check(near(s.percentile(0.50), 50), "p50 of 1..100 is 50 (nearest rank)");
  check(near(s.percentile(0.99), 99), "p99 of 1..100 is 99");
  check(near(s.percentile(1.0), 100), "p100 is the maximum");

  perfbench::Samples weighted;  // 90 records at 2 ms, 10 at 40 ms
  weighted.add(40.0, 10);
  weighted.add(2.0, 90);
  check(weighted.count() == 100, "weighted samples count records");
  check(near(weighted.percentile(0.50), 2.0), "weighted p50");
  check(near(weighted.percentile(0.90), 2.0), "weighted p90 at the edge");
  check(near(weighted.percentile(0.91), 40.0), "weighted p91 past the edge");
  check(near(weighted.percentile(0.99), 40.0), "weighted p99");

  perfbench::Samples empty;
  check(empty.count() == 0 && near(empty.percentile(0.5), 0.0),
        "empty samples report 0");

  check(near(perfbench::median({3, 1, 2}), 2), "odd median");
  check(near(perfbench::median({4, 1, 2, 3}), 2.5), "even median");
}

void open_loop_latency_from_due_time() {
  // Records due every 1 ms from t = 0. The reader keeps up for records
  // 0..1 (verdict 0.5 ms after each is due), then stalls: its next poll
  // returns at 10 ms with records 2..5.
  const double ms = 1e6;
  const std::vector<perfbench::Ingest> polls = {
      {static_cast<std::int64_t>(0.5 * ms), 1},
      {static_cast<std::int64_t>(1.5 * ms), 2},
      {static_cast<std::int64_t>(10 * ms), 6},
  };
  const std::vector<double> latencies =
      perfbench::open_loop_latencies(polls, 0, ms);
  check(latencies.size() == 6, "one latency per record");
  check(near(latencies[2], 8.0) && near(latencies[5], 5.0),
        "latencies in record order");
  perfbench::Samples s;
  for (const double v : latencies) s.add(v);
  // Latencies: 0.5, 0.5, 8, 7, 6, 5 ms. The stall charges every record
  // scheduled behind it from its own due time, not from the poll start.
  check(near(s.percentile(1.0 / 6.0), 0.5), "kept-up records wait 0.5 ms");
  check(near(s.percentile(0.5), 5.0), "p50 after the stall");
  check(near(s.percentile(1.0), 8.0), "first stalled record waits 8 ms");

  std::vector<perfbench::Ingest> shifted = polls;  // schedule starts at 100 ms
  for (auto& p : shifted) p.done_ns += static_cast<std::int64_t>(100 * ms);
  const std::vector<double> offset = perfbench::open_loop_latencies(
      shifted, static_cast<std::int64_t>(100 * ms), ms);
  check(near(offset[2], 8.0), "latency is relative to the schedule start");
}

void windows_split_and_absorb_the_remainder() {
  // 25 records in windows of 10: two windows, the second holding 15.
  std::vector<double> latencies(25, 1.0);
  for (std::size_t i = 10; i < 25; ++i) latencies[i] = 2.0;
  latencies[3] = 50.0;  // one stalled record in the first window
  auto windows = perfbench::windows_of(latencies, 10);
  check(windows.size() == 2, "two windows");
  check(windows[0].count() == 10 && windows[1].count() == 15,
        "last window absorbs the remainder");
  check(near(windows[0].percentile(1.0), 50.0), "stall stays in its window");
  check(near(windows[1].percentile(1.0), 2.0), "later window is clean");
  check(perfbench::windows_of(std::vector<double>(5, 1.0), 10).size() == 1,
        "a short run is one window");
  check(perfbench::windows_of({}, 10).empty(), "no records, no windows");
}

void span_self_time_with_nested_children() {
  // parent [0,100) with children [10,30) and [50,90); the second child has
  // its own child [60,70). A sibling root [100,110) has no children.
  const std::vector<perfbench::Span> spans = {
      {0, 0, 100, -1},  // 0: parent
      {1, 10, 30, 0},   // 1: child
      {2, 50, 90, 0},   // 2: child
      {3, 60, 70, 2},   // 3: grandchild
      {0, 100, 110, -1},  // 4: second parent instance
  };
  const auto totals = perfbench::span_totals(spans);
  check(totals.at(0).total_ns == 110, "parent inclusive time summed");
  check(totals.at(0).self_ns == 40 + 10, "parent self excludes children");
  check(totals.at(0).count == 2, "parent counted twice");
  check(totals.at(1).self_ns == 20, "leaf self equals its duration");
  check(totals.at(2).self_ns == 30, "child self excludes grandchild");
  check(totals.at(3).self_ns == 10, "grandchild self");
  std::int64_t self_sum = 0;
  for (const auto& entry : totals) self_sum += entry.second.self_ns;
  check(self_sum == 110, "self times partition the root intervals");

  // Overlapping children (two threads' worth of work reported under one
  // parent) are counted once, and children outside the parent are clipped.
  const std::vector<perfbench::Span> overlap = {
      {0, 0, 100, -1},
      {1, 20, 60, 0},
      {1, 40, 80, 0},
      {1, 90, 130, 0},
  };
  const auto o = perfbench::span_totals(overlap);
  check(o.at(0).self_ns == 100 - 60 - 10, "overlap union and clipping");
}

void tracer_nests_discards_and_records() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(tracer, 0);
    { perfbench::Tracer::Scope inner(tracer, 1); }
    {
      perfbench::Tracer::Scope dropped(tracer, 2);
      dropped.discard();
    }
    tracer.record(3, 5, 7);
  }
  const auto& spans = tracer.spans();
  check(spans.size() == 3, "discarded span is gone");
  check(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0,
        "children point at the open parent");
  check(spans[2].name == 3 && spans[2].start_ns == 5 && spans[2].end_ns == 7,
        "recorded interval kept as given");
  check(spans[0].end_ns >= spans[1].end_ns, "parent closes last");

  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope ignored(off, 0); }
  off.record(1, 0, 1);
  check(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  percentiles_on_known_samples();
  open_loop_latency_from_due_time();
  windows_split_and_absorb_the_remainder();
  span_self_time_with_nested_children();
  tracer_nests_discards_and_records();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench measure self-test: all checks passed\n");
  return EXIT_SUCCESS;
}
