// Regression tests for the three tail "blind windows" this repository used
// to share with `tail -F`, now closed or detected-and-counted:
//
//   * read() < 0 treated as EOF — EINTR must be retried transparently and
//     real errors surfaced (read_errors()/last_errno()) instead of
//     silently stalling the drain (scripted via the TailConfig read seam);
//   * truncate-then-regrow past the consumed offset between polls — the
//     size check is blind, the first-bytes signature is not: the tailer
//     must restart the incarnation instead of ingesting from a garbage
//     mid-file offset (and the signature must survive a checkpoint round
//     trip so resume is protected too);
//   * double rotation between polls — the middle incarnation's bytes are
//     unreachable; the loss must be detected (the pre-rotation partial's
//     stitched completion fails to parse) and counted in
//     lost_incarnations(), in the live counters and in the checkpoint.
//
// Plus the checkpoint round trip for the rotation-spanning partial-line
// offset clamp (tailer.cpp checkpoint() caveat) and a scripted
// truncate-restart fuzz proving every truncation cycle is detected.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "capture_detector.hpp"
#include "catalog_stream.hpp"
#include "httplog/clf.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/tailer.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"

namespace {

using namespace divscrape;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_win_" + name;
}

std::vector<httplog::LogRecord> smoke_records(std::size_t count) {
  auto records = test::catalog_records("smoke");
  if (records.size() > count) records.resize(count);
  return records;
}

std::vector<std::string> wire_lines(
    const std::vector<httplog::LogRecord>& records, std::size_t begin = 0,
    std::size_t end = static_cast<std::size_t>(-1)) {
  std::vector<std::string> lines;
  end = std::min(end, records.size());
  for (std::size_t i = begin; i < end; ++i)
    lines.push_back(httplog::format_clf(records[i]));
  return lines;
}

// ---- read() fault seam --------------------------------------------------

struct ReadFaultScript {
  int eintr_remaining = 0;  ///< next N reads fail with EINTR
  int fail_once_with = 0;   ///< then one read fails with this errno
};
ReadFaultScript g_read_faults;

ssize_t scripted_read(int fd, void* buf, std::size_t count) {
  if (g_read_faults.eintr_remaining > 0) {
    --g_read_faults.eintr_remaining;
    errno = EINTR;
    return -1;
  }
  if (g_read_faults.fail_once_with != 0) {
    errno = g_read_faults.fail_once_with;
    g_read_faults.fail_once_with = 0;
    return -1;
  }
  return ::read(fd, buf, count);
}

TEST(TailWindows, EintrIsRetriedAndRealErrorsSurface) {
  const auto records = smoke_records(30);
  ASSERT_EQ(records.size(), 30u);
  const auto log = temp_path("eintr.log");
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  const auto pool = divscrape_test::capture_pool(&captured);
  pipeline::ReplayEngine engine(pool);
  pipeline::TailConfig config;
  config.read_fn = &scripted_read;
  pipeline::LogTailer tailer(log, engine, config);
  g_read_faults = ReadFaultScript{};

  // EINTR mid-drain must be invisible: retried, not mistaken for EOF.
  for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
  g_read_faults.eintr_remaining = 3;
  (void)tailer.poll();
  EXPECT_EQ(engine.stats().parsed, 10u);
  EXPECT_EQ(tailer.read_errors(), 0u);
  EXPECT_EQ(tailer.last_errno(), 0);

  // A real error stops the drain and is surfaced — the old code broke out
  // of the loop as if at EOF and reported nothing.
  for (std::size_t i = 10; i < 20; ++i) writer.write(records[i]);
  g_read_faults.fail_once_with = EIO;
  (void)tailer.poll();
  EXPECT_EQ(tailer.read_errors(), 1u);
  EXPECT_EQ(tailer.last_errno(), EIO);
  EXPECT_EQ(engine.stats().parsed, 10u);  // drain stopped before new bytes

  // The fault cleared: the next poll resumes from the same offset, so
  // nothing was lost or re-read.
  (void)tailer.poll();
  EXPECT_EQ(engine.stats().parsed, 20u);
  EXPECT_EQ(tailer.last_errno(), 0);
  for (std::size_t i = 20; i < 30; ++i) writer.write(records[i]);
  (void)tailer.poll();
  EXPECT_EQ(engine.stats().parsed, 30u);
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
}

// ---- truncate-then-regrow ----------------------------------------------

TEST(TailWindows, TruncateThenRegrowPastConsumedIsDetected) {
  const auto records = smoke_records(130);
  ASSERT_EQ(records.size(), 130u);
  const auto log = temp_path("regrow.log");
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  const auto pool = divscrape_test::capture_pool(&captured);
  pipeline::ReplayEngine engine(pool);
  pipeline::LogTailer tailer(log, engine);

  for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
  (void)tailer.poll();
  EXPECT_EQ(engine.stats().parsed, 10u);

  // `> access.log` and regrow PAST the consumed offset before the next
  // poll: the size check alone sees a normal-looking append and would
  // resume mid-record at a garbage offset. The prefix signature catches
  // the replacement.
  writer.truncate_restart();
  for (std::size_t i = 10; i < 60; ++i) writer.write(records[i]);
  (void)tailer.poll();
  EXPECT_EQ(tailer.truncations(), 1u);
  EXPECT_EQ(engine.stats().parsed, 60u);

  // Again, back to back: the detecting poll must have re-signed the
  // regrown incarnation BEFORE draining it, or this second
  // truncate-and-regrow (past the new consumed offset) is invisible.
  writer.truncate_restart();
  for (std::size_t i = 60; i < 130; ++i) writer.write(records[i]);
  (void)tailer.poll();

  EXPECT_EQ(tailer.truncations(), 2u);
  EXPECT_EQ(engine.stats().parsed, 130u);
  EXPECT_EQ(engine.stats().skipped, 0u);  // no mid-record garbage ingested
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
}

TEST(TailWindows, TruncateRegrowWhileDownIsCaughtByCheckpointSignature) {
  const auto records = smoke_records(50);
  ASSERT_EQ(records.size(), 50u);
  const auto log = temp_path("regrow_down.log");
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  pipeline::Checkpoint saved;
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
    (void)tailer.poll();
    const auto cp = tailer.checkpoint();
    EXPECT_GT(cp.sig_len, 0u);  // signature captured and persisted
    const auto roundtrip = pipeline::Checkpoint::from_json(cp.to_json());
    ASSERT_TRUE(roundtrip.has_value());
    EXPECT_TRUE(*roundtrip == cp);
    saved = *roundtrip;
  }

  // Same inode, truncated and regrown past the committed offset while the
  // process was down: the inode+size resume checks both pass, only the
  // signature knows the content below the offset was replaced.
  writer.truncate_restart();
  for (std::size_t i = 10; i < 50; ++i) writer.write(records[i]);

  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    EXPECT_FALSE(tailer.resume(saved));  // offset discarded
    EXPECT_EQ(tailer.truncations(), 1u);
    (void)tailer.poll();
    EXPECT_EQ(engine.stats().skipped, 0u);
  }
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
}

// ---- double rotation between polls -------------------------------------

TEST(TailWindows, DoubleRotationBetweenPollsCountsTheLostIncarnation) {
  const auto records = smoke_records(40);
  ASSERT_EQ(records.size(), 40u);
  const auto log = temp_path("double_rot.log");
  const auto rotated1 = log + ".1";
  const auto rotated2 = log + ".2";
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  const auto pool = divscrape_test::capture_pool(&captured);
  pipeline::ReplayEngine engine(pool);
  pipeline::LogTailer tailer(log, engine);

  // Incarnation 0: 10 records plus the head of a torn record, cut just
  // inside the timestamp bracket. (The detection is a parse-failure
  // heuristic: a cut that happens to stitch into a parseable franken-line
  // goes uncounted, so the test pins a cut point whose stitch cannot
  // parse — torn mid-field, the overwhelmingly common case.)
  for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
  const std::string torn = httplog::format_clf(records[10]) + "\n";
  const auto cut = torn.find('[') + 1;
  writer.write_bytes(std::string_view(torn).substr(0, cut));
  (void)tailer.poll();  // drained; torn head held as a partial
  EXPECT_TRUE(engine.decoder().has_partial_line());

  // TWO rotations complete before the next poll. The middle incarnation
  // (the torn record's tail + records 11..19) is never reachable: the
  // tailer only holds incarnation 0's descriptor and the path now names
  // incarnation 2.
  writer.rotate(rotated1);
  writer.write_bytes(std::string_view(torn).substr(cut));
  for (std::size_t i = 11; i < 20; ++i) writer.write(records[i]);
  writer.rotate(rotated2);
  for (std::size_t i = 20; i < 40; ++i) writer.write(records[i]);
  (void)tailer.poll();

  // The stitch (incarnation 0's partial + incarnation 2's first line)
  // fails to parse: that is the detection.
  EXPECT_EQ(tailer.rotations(), 1u);  // one switch observed
  EXPECT_EQ(tailer.lost_incarnations(), 1u);
  EXPECT_EQ(engine.stats().skipped, 1u);
  // Parsed: 10 before the tear + 19 from incarnation 2 (its first record
  // was consumed by the bogus stitch).
  EXPECT_EQ(engine.stats().parsed, 29u);
  const auto cp = tailer.checkpoint();
  EXPECT_EQ(cp.lost_incarnations, 1u);
  const auto roundtrip = pipeline::Checkpoint::from_json(cp.to_json());
  ASSERT_TRUE(roundtrip.has_value());
  EXPECT_EQ(roundtrip->lost_incarnations, 1u);

  std::remove(log.c_str());
  std::remove(rotated1.c_str());
  std::remove(rotated2.c_str());
}

TEST(TailWindows, CleanStitchAcrossSingleRotationIsNotCountedAsLost) {
  const auto records = smoke_records(12);
  ASSERT_EQ(records.size(), 12u);
  const auto log = temp_path("clean_stitch.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  const auto pool = divscrape_test::capture_pool(&captured);
  pipeline::ReplayEngine engine(pool);
  pipeline::LogTailer tailer(log, engine);

  for (std::size_t i = 0; i < 5; ++i) writer.write(records[i]);
  const std::string torn = httplog::format_clf(records[5]) + "\n";
  writer.write_bytes(std::string_view(torn).substr(0, torn.size() / 2));
  (void)tailer.poll();
  writer.rotate(rotated);
  writer.write_bytes(std::string_view(torn).substr(torn.size() / 2));
  for (std::size_t i = 6; i < 12; ++i) writer.write(records[i]);
  (void)tailer.poll();

  EXPECT_EQ(tailer.rotations(), 1u);
  EXPECT_EQ(tailer.lost_incarnations(), 0u);  // the stitch parsed: no loss
  EXPECT_EQ(engine.stats().parsed, 12u);
  EXPECT_EQ(engine.stats().skipped, 0u);
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

// ---- rotation-spanning partial: checkpoint offset clamp ----------------

TEST(TailWindows, RotationSpanningPartialClampsOffsetAndRoundTrips) {
  const auto records = smoke_records(20);
  ASSERT_EQ(records.size(), 20u);
  const auto log = temp_path("span_clamp.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  pipeline::Checkpoint saved;
  const std::string torn = httplog::format_clf(records[10]) + "\n";
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
    writer.write_bytes(std::string_view(torn).substr(0, torn.size() / 2));
    (void)tailer.poll();  // torn head held
    writer.rotate(rotated);
    (void)tailer.poll();  // rotation observed; new file still empty
    EXPECT_EQ(tailer.rotations(), 1u);
    EXPECT_TRUE(engine.decoder().has_partial_line());

    // The carried partial exceeds everything consumed from the new
    // incarnation (nothing yet): the committed offset must clamp to 0,
    // not underflow.
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.offset, 0u);
    EXPECT_EQ(cp.parsed, 10u);
    const auto roundtrip = pipeline::Checkpoint::from_json(cp.to_json());
    ASSERT_TRUE(roundtrip.has_value());
    EXPECT_TRUE(*roundtrip == cp);
    saved = *roundtrip;
  }  // killed in the caveat window: the in-memory torn head dies with us

  // The writer completes the torn record in the new incarnation and keeps
  // going; resume starts at offset 0 of the new file, so the orphaned
  // tail half fails to parse — exactly the one documented lost record.
  writer.write_bytes(std::string_view(torn).substr(torn.size() / 2));
  for (std::size_t i = 11; i < 20; ++i) writer.write(records[i]);
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    EXPECT_TRUE(tailer.resume(saved));
    (void)tailer.poll();
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.parsed, 19u);   // all but the torn record
    EXPECT_EQ(cp.skipped, 1u);   // its orphaned tail half
    EXPECT_EQ(cp.rotations, 1u);
  }
  auto expected = wire_lines(records, 0, 10);
  const auto rest = wire_lines(records, 11, 20);
  expected.insert(expected.end(), rest.begin(), rest.end());
  EXPECT_EQ(captured, expected);
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

// ---- scripted truncate-restart fuzz ------------------------------------

TEST(TailWindows, ScriptedTruncateRestartsAreAlwaysDetected) {
  const auto records = smoke_records(120);
  ASSERT_EQ(records.size(), 120u);
  const auto expected_lines = wire_lines(records);
  const auto log = temp_path("trunc_script.log");
  traffic::StreamWriter::FaultPlan plan;
  plan.truncate_every = 17;
  traffic::StreamWriter writer(log, plan);

  std::vector<std::string> captured;
  const auto pool = divscrape_test::capture_pool(&captured);
  pipeline::ReplayEngine engine(pool);
  pipeline::LogTailer tailer(log, engine);

  // Poll every 5 records: at least one poll lands between any two
  // scripted truncations, so every single one must be detected (by size
  // drop or by signature), never silently skewing the offset.
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.write(records[i]);
    if (i % 5 == 3) (void)tailer.poll();
  }
  (void)tailer.poll();

  EXPECT_EQ(tailer.truncations(), 120u / 17u);
  EXPECT_EQ(engine.stats().skipped, 0u);  // never mis-framed mid-record
  // Exactly-once-or-lost: captured is a duplicate-free subsequence of the
  // written lines (bytes erased before a drain are gone, nothing else).
  std::size_t at = 0;
  for (const auto& line : captured) {
    while (at < expected_lines.size() && expected_lines[at] != line) ++at;
    ASSERT_LT(at, expected_lines.size()) << "captured line out of order";
    ++at;
  }
  EXPECT_GT(captured.size(), 60u);  // most records survive frequent polls
  std::remove(log.c_str());
}

}  // namespace
