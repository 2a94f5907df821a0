// MultiTailer backlog memory bound: frontier-driven reads and the
// max_buffered_records backstop must keep the per-log merge queues — and
// therefore resident memory — bounded while catching up over a large
// pre-existing backlog, without losing a record.
//
// This is the satellite guarantee behind the chaos soak's bounded-RSS
// claim: a tailer pointed at a full day of multi-gigabyte logs must not
// materialize every decoded record before the merge starts emitting.
// MultiTailer::poll() reads one bounded chunk at a time from the log with
// the lowest frontier, so even without the cap each log buffers about one
// read chunk of records; the cap bounds the total below that.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "pipeline/multi_tailer.hpp"
#include "util/rss.hpp"

namespace {

using namespace divscrape;

constexpr int kFiles = 3;
constexpr int kRecordsPerFile = 30'000;

std::string backlog_path(const std::string& tag, int file) {
  return ::testing::TempDir() + "divscrape_backlog_" +
         std::to_string(::getpid()) + "_" + tag + "_v" +
         std::to_string(file) + ".log";
}

// One wire line per simulated second; all files cover the same second
// range, so the streams interleave maximally under the merge. Returns the
// shortest line written, terminator included.
std::size_t write_backlog(const std::string& path, int file) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::size_t shortest = SIZE_MAX;
  for (int i = 0; i < kRecordsPerFile; ++i) {
    char line[256];
    const int n = std::snprintf(
        line, sizeof(line),
        "10.%d.%d.%d - - [11/Mar/2018:%02d:%02d:%02d +0000] "
        "\"GET /p%d HTTP/1.1\" 200 512 \"-\" \"Mozilla/5.0\"\n",
        file, (i / 250) % 250, i % 250, i / 3600, (i / 60) % 60, i % 60,
        i % 100);
    shortest = std::min(shortest, static_cast<std::size_t>(n));
    out << line;
  }
  return shortest;
}

struct BacklogObservation {
  std::uint64_t delivered = 0;
  std::size_t max_buffered = 0;
  std::size_t shortest_line = SIZE_MAX;
  std::uint64_t late = 0;
  std::uint64_t forced = 0;
};

// Replays the backlog through one poll() and records the buffer high-water
// as observed from inside the sink — i.e. during decoding, where the
// catch-up peak actually happens. One-record out batches put the sink
// behind every emission.
BacklogObservation drain_backlog(const std::string& tag,
                                 const pipeline::MultiTailConfig& config) {
  BacklogObservation obs;
  std::vector<std::string> paths;
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back(backlog_path(tag, f));
    obs.shortest_line =
        std::min(obs.shortest_line, write_backlog(paths.back(), f));
  }

  pipeline::MultiTailer* tailer_ptr = nullptr;
  pipeline::MultiTailer tailer(
      paths,
      [&](pipeline::RecordBatch&& batch) {
        obs.delivered += batch.size();
        if (tailer_ptr && tailer_ptr->buffered_records() > obs.max_buffered) {
          obs.max_buffered = tailer_ptr->buffered_records();
        }
      },
      /*batch_records=*/1, config);
  tailer_ptr = &tailer;

  while (tailer.poll() > 0) {
  }
  tailer.flush();
  EXPECT_EQ(tailer.stats().parsed,
            static_cast<std::uint64_t>(kFiles) * kRecordsPerFile);
  obs.late = tailer.late_records();
  obs.forced = tailer.forced_emits();
  for (const auto& p : paths) std::remove(p.c_str());
  return obs;
}

TEST(MultiTailBacklog, BufferCapBoundsHeapDuringCatchUp) {
  constexpr std::size_t kCap = 2048;
  pipeline::MultiTailConfig config;
  config.max_buffered_records = kCap;
  config.tail.chunk_bytes = 1024 * 1024;  // ~10k records per read chunk
  const std::uint64_t rss_before_kb = util::current_rss_kb();
  const auto capped = drain_backlog("capped", config);
  const std::uint64_t rss_after_kb = util::current_rss_kb();

  EXPECT_EQ(capped.delivered,
            static_cast<std::uint64_t>(kFiles) * kRecordsPerFile);
  EXPECT_LE(capped.max_buffered, kCap);
  // The buffer actually reached the backstop: one 1 MiB read chunk holds
  // about five times the cap, so a no-op cap would show up as a much
  // higher peak.
  EXPECT_GE(capped.max_buffered, kCap / 2);
  // Resident growth across the whole catch-up stays far below the backlog
  // size (~13 MiB of wire bytes, 90k records): the generous 64 MiB bound
  // only catches materialize-everything regressions, not allocator noise.
  if (rss_before_kb > 0 && rss_after_kb > 0) {
    EXPECT_LE(rss_after_kb, rss_before_kb + 64 * 1024);
  }
}

TEST(MultiTailBacklog, UncappedCatchUpBuffersAboutOneChunkPerLog) {
  pipeline::MultiTailConfig config;
  config.max_buffered_records = 0;
  config.tail.chunk_bytes = 64 * 1024;  // ~600 records of a 30k file
  config.tail.max_chunk_bytes = 64 * 1024;
  const auto uncapped = drain_backlog("uncapped", config);
  EXPECT_EQ(uncapped.delivered,
            static_cast<std::uint64_t>(kFiles) * kRecordsPerFile);
  // Frontier-driven reads: every log holds at most its latest chunk, and
  // the log just read also the tail of its previous one while the merge
  // drains it — never a whole file, with or without the cap.
  const std::size_t per_chunk =
      config.tail.chunk_bytes / uncapped.shortest_line + 1;
  EXPECT_LE(uncapped.max_buffered, (kFiles + 1) * per_chunk);
  // The catch-up is an exact merge: nothing forced, nothing late.
  EXPECT_EQ(uncapped.late, 0u);
  EXPECT_EQ(uncapped.forced, 0u);
}

}  // namespace
