// StreamWriter write_fn seam tests: the scripted-kernel boundary the chaos
// soak leans on. The seam replaces ::write(2) for every byte the writer
// emits, so these tests pin down the three behaviours the soak's fault
// script assumes:
//
//   * short writes are retried until the line is fully out (lossless);
//   * EINTR is retried transparently and never counted as an error;
//   * a one-shot ENOSPC drops exactly the remainder of the burst it hit,
//     with write_errors/dropped_bytes/last_errno accounting to match.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "clf_line.hpp"
#include "httplog/clf.hpp"
#include "traffic/stream_writer.hpp"

namespace {

using namespace divscrape;
using traffic::StreamFaultPlan;
using traffic::StreamWriter;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_seam_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr const char* kWireLine =
    "203.0.113.7 - - [11/Mar/2018:06:25:24 +0000] "
    "\"GET /search?q=fares HTTP/1.1\" 200 5120 \"-\" \"Mozilla/5.0\"";

httplog::LogRecord sample_record() {
  auto parsed = test::parse_clf(kWireLine);
  EXPECT_TRUE(parsed.ok());
  return *parsed.record;
}

// Seam state is file-scope because write_fn is a plain function pointer
// (mirroring LogTailer's read_fn seam) — each test resets what it uses.
int g_short_writes_left = 0;
int g_eintr_left = 0;
int g_fail_after_successes = -1;  // -1 = disarmed

ssize_t seam_short_writes(int fd, const void* buf, std::size_t count) {
  if (g_short_writes_left > 0) {
    --g_short_writes_left;
    return ::write(fd, buf, count > 1 ? count / 2 : count);
  }
  return ::write(fd, buf, count);
}

ssize_t seam_eintr_then_ok(int fd, const void* buf, std::size_t count) {
  if (g_eintr_left > 0) {
    --g_eintr_left;
    errno = EINTR;
    return -1;
  }
  return ::write(fd, buf, count);
}

ssize_t seam_enospc_after(int fd, const void* buf, std::size_t count) {
  if (g_fail_after_successes == 0) {
    g_fail_after_successes = -1;  // one-shot
    errno = ENOSPC;
    return -1;
  }
  if (g_fail_after_successes > 0) --g_fail_after_successes;
  return ::write(fd, buf, count);
}

TEST(StreamSeam, ShortWritesAreRetriedLosslessly) {
  const std::string path = temp_path("short");
  const std::string expected = std::string(kWireLine) + "\n";
  {
    StreamFaultPlan plan;
    plan.write_fn = seam_short_writes;
    g_short_writes_left = 64;  // outlasts the line: every call is short
    StreamWriter writer(path, plan);
    writer.write(sample_record());
    EXPECT_EQ(writer.write_errors(), 0u);
    EXPECT_EQ(writer.dropped_bytes(), 0u);
    EXPECT_EQ(writer.bytes_written(), expected.size());
  }
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(StreamSeam, BatchedFlushRoutesEveryLineThroughTheSeam) {
  const std::string path = temp_path("batched");
  const std::string line = std::string(kWireLine) + "\n";
  constexpr int kLines = 10;
  {
    StreamFaultPlan plan;
    plan.write_fn = seam_short_writes;
    g_short_writes_left = 1000;  // every seam call is short for all lines
    StreamWriter writer(path, plan, /*batch_lines=*/4);
    const auto record = sample_record();
    for (int i = 0; i < kLines; ++i) writer.write(record);
    writer.flush();
    EXPECT_EQ(writer.write_errors(), 0u);
    EXPECT_EQ(writer.bytes_written(), line.size() * kLines);
  }
  std::string expected;
  for (int i = 0; i < kLines; ++i) expected += line;
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(StreamSeam, EintrStormIsRetriedWithoutErrorAccounting) {
  const std::string path = temp_path("eintr");
  const std::string expected = std::string(kWireLine) + "\n";
  {
    StreamFaultPlan plan;
    plan.write_fn = seam_eintr_then_ok;
    g_eintr_left = 25;
    StreamWriter writer(path, plan);
    writer.write(sample_record());
    EXPECT_EQ(writer.write_errors(), 0u);
    EXPECT_EQ(writer.last_errno(), 0);
  }
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(StreamSeam, OneShotEnospcDropsExactlyOneLine) {
  const std::string path = temp_path("enospc");
  const std::string line = std::string(kWireLine) + "\n";
  {
    StreamFaultPlan plan;
    plan.write_fn = seam_enospc_after;
    StreamWriter writer(path, plan);
    const auto record = sample_record();
    writer.write(record);            // line 1: clean
    g_fail_after_successes = 0;      // arm: next seam call fails
    writer.write(record);            // line 2: fully dropped
    writer.write(record);            // line 3: clean again
    EXPECT_EQ(writer.write_errors(), 1u);
    EXPECT_EQ(writer.last_errno(), ENOSPC);
    EXPECT_EQ(writer.dropped_bytes(), line.size());
    EXPECT_EQ(writer.bytes_written(), 2 * line.size());
    EXPECT_EQ(writer.records_written(), 3u);  // attempts, not successes
  }
  EXPECT_EQ(read_file(path), line + line);
  std::remove(path.c_str());
}

TEST(StreamSeam, EnospcMidLineDropsOnlyTheRemainder) {
  const std::string path = temp_path("midline");
  const std::string line = std::string(kWireLine) + "\n";
  {
    StreamFaultPlan plan;
    plan.write_fn = seam_enospc_after;
    StreamWriter writer(path, plan);
    g_fail_after_successes = 1;  // first seam call succeeds, second fails
    // Force a short first write so the line needs two calls: combine seams
    // by writing the line in two explicit halves.
    const auto half = line.size() / 2;
    writer.write_bytes(line.substr(0, half));   // seam call 1: ok
    writer.write_bytes(line.substr(half));      // seam call 2: ENOSPC
    EXPECT_EQ(writer.write_errors(), 1u);
    EXPECT_EQ(writer.dropped_bytes(), line.size() - half);
    EXPECT_EQ(writer.bytes_written(), half);
  }
  EXPECT_EQ(read_file(path), line.substr(0, line.size() / 2));
  std::remove(path.c_str());
}

}  // namespace
