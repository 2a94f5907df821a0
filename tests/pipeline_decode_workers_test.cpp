// MultiTailer decode-thread tests: every log is read and decoded on its own
// thread, and the merge must not be able to tell.
//
// Timing independence: a read seam that sleeps or yields at random on the
// decode threads, and a sink that naps at random on the caller, must leave
// the emitted stream, late_records(), forced_emits(), the per-poll
// counters and every checkpoint(i) unchanged over 20 runs. The scenarios
// cover time-ordered logs (the output is their stable sort), one log whose
// timestamps step back, and a log that goes quiet under a nonzero reorder
// window (forced emits, then late records when it wakes).
//
// Lifecycle: a tailer that is never polled starts no thread, the first
// poll() starts one per log, and destruction leaves none. An exception on
// a decode thread is rethrown from poll() on the caller, and the
// destructor still joins every thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "httplog/clf.hpp"
#include "pipeline/multi_tailer.hpp"
#include "traffic/stream_writer.hpp"

namespace {

using namespace divscrape;

constexpr int kFiles = 3;
constexpr int kRuns = 20;
/// Out-batch size: small, so the sink runs often between chunks.
constexpr std::size_t kBatch = 7;

std::string temp_path(const std::string& tag, int file) {
  return ::testing::TempDir() + "divscrape_dw_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(file) + ".log";
}

/// One CLF line at `second` past midnight; `n` varies the client and path.
std::string clf_line(int file, int n, std::int64_t second) {
  char line[256];
  std::snprintf(line, sizeof line,
                "10.%d.%d.%d - - [11/Mar/2018:%02d:%02d:%02d +0000] "
                "\"GET /p%d HTTP/1.1\" 200 512 \"-\" \"Mozilla/5.0\"\n",
                file, (n / 250) % 250, n % 250,
                static_cast<int>(second / 3600),
                static_cast<int>(second / 60 % 60),
                static_cast<int>(second % 60), n % 100);
  return line;
}

/// Seeds each decode thread's jitter differently.
std::atomic<std::uint32_t> g_jitter_seed{1};

/// Thread-safe read seam: every call may nap, yield or run straight on,
/// at random, so the decode threads race each other and the caller.
ssize_t jittered_read(int fd, void* buf, std::size_t count) {
  thread_local std::minstd_rand rng(g_jitter_seed.fetch_add(1));
  const std::uint32_t r = static_cast<std::uint32_t>(rng());
  if (r % 4 == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(r % 200));
  } else if (r % 4 == 1) {
    std::this_thread::yield();
  }
  return ::read(fd, buf, count);
}

/// What each log gains before one poll().
struct Phase {
  std::vector<std::string> appends;  ///< bytes per log
  bool flush_after = false;          ///< flush() right after the poll
};

/// Everything a run can observe.
struct RunTrace {
  std::vector<std::string> events;  ///< counters after each poll/flush
  std::vector<std::string> emitted;
  std::uint64_t late = 0;
  std::uint64_t forced = 0;
  std::vector<std::string> checkpoints;

  [[nodiscard]] auto tie() const {
    return std::tie(events, emitted, late, forced, checkpoints);
  }
  bool operator==(const RunTrace& other) const { return tie() == other.tie(); }
};

/// Replays `phases` into freshly truncated logs at `paths` (truncation
/// keeps each file's inode, so checkpoints compare across runs) through a
/// new MultiTailer whose decode threads read through the jitter seam.
RunTrace run_script(const std::vector<std::string>& paths,
                    const std::vector<Phase>& phases,
                    pipeline::MultiTailConfig config, unsigned sink_seed) {
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;
  for (const auto& path : paths)
    writers.push_back(std::make_unique<traffic::StreamWriter>(path));
  config.tail.chunk_bytes = 4096;  // many chunks per log and poll
  config.tail.max_chunk_bytes = 4096;
  config.tail.read_fn = &jittered_read;

  RunTrace trace;
  std::minstd_rand sink_rng(sink_seed);
  pipeline::MultiTailer tailer(
      paths,
      [&](pipeline::RecordBatch&& batch) {
        if (sink_rng() % 8 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        for (const auto& record : batch)
          trace.emitted.push_back(httplog::format_clf(record));
      },
      kBatch, config);
  const auto note = [&](const char* what, std::size_t value) {
    trace.events.push_back(
        std::string(what) + " " + std::to_string(value) + " emitted " +
        std::to_string(trace.emitted.size()) + " buffered " +
        std::to_string(tailer.buffered_records()) + " late " +
        std::to_string(tailer.late_records()) + " forced " +
        std::to_string(tailer.forced_emits()));
  };
  for (const Phase& phase : phases) {
    for (std::size_t f = 0; f < paths.size(); ++f)
      writers[f]->write_bytes(phase.appends[f]);
    note("poll", tailer.poll());
    if (phase.flush_after) note("flush", tailer.flush());
  }
  note("poll", tailer.poll());
  note("flush", tailer.flush());
  trace.late = tailer.late_records();
  trace.forced = tailer.forced_emits();
  for (std::size_t f = 0; f < tailer.files(); ++f)
    trace.checkpoints.push_back(tailer.checkpoint(f).to_json());
  return trace;
}

struct Logs {
  explicit Logs(const std::string& tag) {
    for (int f = 0; f < kFiles; ++f) paths.push_back(temp_path(tag, f));
  }
  ~Logs() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
  std::vector<std::string> paths;
};

/// Runs the script kRuns times; every run must match the first.
RunTrace expect_timing_independent(const std::string& tag,
                                   const std::vector<Phase>& phases,
                                   const pipeline::MultiTailConfig& config) {
  Logs logs(tag);
  const RunTrace first = run_script(logs.paths, phases, config, 1);
  for (int run = 1; run < kRuns; ++run) {
    const RunTrace again =
        run_script(logs.paths, phases, config, static_cast<unsigned>(run + 1));
    EXPECT_TRUE(again == first) << tag << ": run " << run << " differs";
  }
  return first;
}

/// A record's wire line and merge key, for the stable-sort reference.
struct Ref {
  std::int64_t second;
  int file;
  std::string wire;
};

std::vector<std::string> stable_sorted(std::vector<Ref> refs) {
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.second, a.file) < std::tie(b.second, b.file);
  });
  std::vector<std::string> wires;
  for (auto& r : refs) wires.push_back(std::move(r.wire));
  return wires;
}

TEST(MultiTailDecodeWorkers, TimeOrderedLogsMergeIdenticallyUnderJitter) {
  // Log f writes one record every f + 1 seconds up to 6000 s: streams at
  // different rates with equal timestamps across logs, all ending together
  // so that nothing is left to force once every log is quiet.
  Phase phase;
  phase.appends.resize(kFiles);
  std::vector<Ref> refs;
  for (int f = 0; f < kFiles; ++f) {
    for (int n = 0; n * (f + 1) <= 6000; ++n) {
      const std::int64_t second = static_cast<std::int64_t>(n) * (f + 1);
      std::string line = clf_line(f, n, second);
      phase.appends[static_cast<std::size_t>(f)] += line;
      line.pop_back();  // format_clf has no terminator
      refs.push_back(Ref{second, f, std::move(line)});
    }
  }
  const RunTrace trace = expect_timing_independent(
      "ordered", {phase}, pipeline::MultiTailConfig());
  EXPECT_EQ(trace.emitted, stable_sorted(refs));
  EXPECT_EQ(trace.late, 0u);
  EXPECT_EQ(trace.forced, 0u);
}

TEST(MultiTailDecodeWorkers, DisorderedLogIsTimingIndependent) {
  // Log 1 steps back 30 s on every 40th record; the others stay ordered.
  Phase phase;
  phase.appends.resize(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    for (int n = 0; n < 1500; ++n) {
      std::int64_t second = n * 2 + f;
      if (f == 1 && n % 40 == 39) second -= 30;
      phase.appends[static_cast<std::size_t>(f)] += clf_line(f, n, second);
    }
  }
  const RunTrace trace = expect_timing_independent(
      "disordered", {phase}, pipeline::MultiTailConfig());
  EXPECT_EQ(trace.emitted.size(), 3u * 1500u);
  EXPECT_GT(trace.late, 0u);
}

TEST(MultiTailDecodeWorkers, QuietLogUnderReorderWindowIsTimingIndependent) {
  // Log 1 ends at 9 s while logs 0 and 2 run on to 12 s, then to 600 s
  // with log 1 quiet: the default 2 s window forces records past it. Log 1
  // then wakes below the emission front, so its records are late.
  const auto span = [](int file, std::int64_t from, std::int64_t to,
                       std::int64_t step) {
    std::string bytes;
    for (std::int64_t s = from; s <= to; s += step)
      bytes += clf_line(file, static_cast<int>(s), s);
    return bytes;
  };
  std::vector<Phase> phases(3);
  phases[0].appends = {span(0, 0, 12, 1), span(1, 0, 9, 1),
                       span(2, 0, 12, 1)};
  phases[1].appends = {span(0, 13, 600, 1), "", span(2, 13, 600, 1)};
  phases[1].flush_after = true;
  phases[2].appends = {"", span(1, 300, 330, 3), ""};
  pipeline::MultiTailConfig config;
  ASSERT_GT(config.reorder_window_us, 0);
  const RunTrace trace = expect_timing_independent("quiet", phases, config);
  EXPECT_GT(trace.forced, 0u);
  EXPECT_EQ(trace.late, 11u);
}

// --- lifecycle ------------------------------------------------------------

/// This process's thread count, from /proc/self/status.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// A joined thread can stay in the count for a moment after join()
/// returns (the kernel reaps it after waking the joiner); wait it out.
std::size_t settled_thread_count(std::size_t want) {
  std::size_t now = thread_count();
  for (int i = 0; i < 200 && now != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    now = thread_count();
  }
  return now;
}

/// The thread count before a test starts any. One thread is started and
/// joined first: a sanitizer runtime starts a helper thread of its own
/// along with the process's first thread.
std::size_t base_thread_count() {
  std::thread([] {}).join();
  std::size_t now = thread_count();
  for (std::size_t last = 0; now != last;) {
    last = now;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = thread_count();
  }
  return now;
}

/// Writes `lines` ordered records into each log.
void write_logs(const Logs& logs, int lines) {
  for (int f = 0; f < kFiles; ++f) {
    std::ofstream out(logs.paths[static_cast<std::size_t>(f)],
                      std::ios::binary | std::ios::trunc);
    for (int n = 0; n < lines; ++n) out << clf_line(f, n, n);
  }
}

TEST(MultiTailDecodeWorkers, ThreadsStartOnFirstPollAndJoinOnDestruction) {
  Logs logs("lifecycle");
  write_logs(logs, 500);
  const std::size_t base = base_thread_count();
  ASSERT_GT(base, 0u);
  std::uint64_t emitted = 0;
  const auto sink = [&](pipeline::RecordBatch&& batch) {
    emitted += batch.size();
  };
  {
    pipeline::MultiTailer never_polled(logs.paths, sink, kBatch);
    EXPECT_EQ(thread_count(), base);
  }
  EXPECT_EQ(thread_count(), base);
  {
    pipeline::MultiTailer tailer(logs.paths, sink, kBatch);
    EXPECT_EQ(thread_count(), base);
    EXPECT_GT(tailer.poll(), 0u);
    EXPECT_EQ(thread_count(), base + tailer.files());
    // Later polls reuse the same threads.
    EXPECT_EQ(tailer.poll(), 0u);
    EXPECT_EQ(thread_count(), base + tailer.files());
    (void)tailer.flush();
    EXPECT_EQ(emitted, 3u * 500u);
  }
  EXPECT_EQ(settled_thread_count(base), base);
}

/// Read calls left before the throwing seam throws (0 = never).
std::atomic<int> g_reads_before_throw{0};

ssize_t throwing_read(int fd, void* buf, std::size_t count) {
  if (g_reads_before_throw.fetch_sub(1) == 1)
    throw std::runtime_error("injected read failure");
  return ::read(fd, buf, count);
}

TEST(MultiTailDecodeWorkers, DecodeThreadExceptionIsRethrownOnTheCaller) {
  // Every log spans many chunks, so when one decode thread throws the
  // others are still mid-pass, some blocked handing over a chunk.
  Logs logs("throw");
  write_logs(logs, 3000);
  const std::size_t base = base_thread_count();
  pipeline::MultiTailConfig config;
  config.tail.chunk_bytes = 4096;
  config.tail.max_chunk_bytes = 4096;
  config.tail.read_fn = &throwing_read;
  g_reads_before_throw = 10;
  {
    pipeline::MultiTailer tailer(
        logs.paths, [](pipeline::RecordBatch&&) {}, kBatch, config);
    EXPECT_THROW((void)tailer.poll(), std::runtime_error);
  }
  EXPECT_LE(g_reads_before_throw.load(), 0);
  EXPECT_EQ(settled_thread_count(base), base);
}

}  // namespace
