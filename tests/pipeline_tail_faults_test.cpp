// Fault-injection equivalence: the tentpole claim of the live-ingest
// subsystem. The catalog amadeus_like stream at scale 0.05 (~80k records)
// is written to a live log file under continuous adversarial conditions —
// torn writes split at arbitrary byte boundaries (including across a
// poll), CRLF line endings, interleaved garbage lines, one mid-session rotation with a
// record torn across the boundary, and one truncate-and-restart — while a
// LogTailer feeds a ReplayEngine. The resulting JointResults must be
// byte-identical (as serialized JSON) to a one-shot batch replay of the
// logically ingested byte stream, and the framing accounting must match
// exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/tailer.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"

namespace {

using namespace divscrape;
using detectors::make_paper_pair;

TEST(TailFaults, FaultedLiveStreamMatchesOneShotBatchReplay) {
  const std::string log = ::testing::TempDir() + "divscrape_tail_faults.log";
  const std::string rotated = log + ".1";

  traffic::StreamWriter writer(log);
  const auto live_pool = make_paper_pair();
  pipeline::ReplayEngine engine(live_pool);
  pipeline::LogTailer tailer(log, engine);
  stats::Rng rng(20180311);

  // Every byte the tailer should logically ingest, in order — the
  // one-shot reference. (The truncated bytes stay in it: the tailer
  // drained them before the truncation erased them.)
  std::string reference;
  const auto emit_whole = [&](std::string_view wire) {
    reference.append(wire.data(), wire.size());
    writer.write_bytes(wire);
  };

  std::uint64_t n = 0;
  std::uint64_t garbage = 0;
  bool rotated_once = false;
  bool truncated_once = false;
  for (const auto& record : test::catalog_records("amadeus_like", 0.05)) {
    ++n;
    if (n % 501 == 0) {  // corrupt lines: skip accounting must agree too
      ++garbage;
      emit_whole("%% torn garbage that is definitely not CLF %%\n");
    }
    std::string wire = httplog::format_clf(record);
    wire += n % 13 == 0 ? "\r\n" : "\n";
    reference += wire;

    if (!rotated_once && n >= 20000) {
      // Mid-session rotation with this record torn across the boundary:
      // its head is the old file's final (unterminated) bytes, its tail
      // the new file's first bytes. The framer must stitch them.
      rotated_once = true;
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
      writer.write_bytes(std::string_view(wire).substr(0, cut));
      (void)tailer.poll();  // old file drained, torn head held as partial
      writer.rotate(rotated);
      writer.write_bytes(std::string_view(wire).substr(cut));
    } else if (n % 97 == 0 && wire.size() > 2) {
      // Torn write at an arbitrary byte boundary (CRLF interior included),
      // with a poll racing between the halves.
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1));
      writer.write_bytes(std::string_view(wire).substr(0, cut));
      if (rng.bernoulli(0.5)) (void)tailer.poll();
      writer.write_bytes(std::string_view(wire).substr(cut));
    } else {
      writer.write_bytes(wire);
    }

    if (!truncated_once && n >= 45000) {
      // `> access.log`: drain everything first (the reference keeps those
      // bytes — they were ingested before the truncation erased them),
      // then restart the same inode at size zero.
      truncated_once = true;
      (void)tailer.poll();
      writer.truncate_restart();
    }
    if (n % 1009 == 0) (void)tailer.poll();
  }
  (void)tailer.poll();
  ASSERT_TRUE(rotated_once);
  ASSERT_TRUE(truncated_once);
  EXPECT_EQ(tailer.rotations(), 1u);
  EXPECT_EQ(tailer.truncations(), 1u);
  // The single rotation's torn line stitched cleanly: the detected-loss
  // counter must stay at zero (no false positives), and no read faulted.
  EXPECT_EQ(tailer.lost_incarnations(), 0u);
  EXPECT_EQ(tailer.read_errors(), 0u);
  // The writer completed every line, so nothing may be left partial.
  EXPECT_FALSE(engine.decoder().has_partial_line());

  // One-shot batch replay of the logically ingested stream.
  const auto batch_pool = make_paper_pair();
  pipeline::ReplayEngine batch(batch_pool);
  std::istringstream in(reference);
  const auto batch_stats = batch.replay(in);

  EXPECT_EQ(engine.stats().lines, batch_stats.lines);
  EXPECT_EQ(engine.stats().parsed, batch_stats.parsed);
  EXPECT_EQ(engine.stats().skipped, batch_stats.skipped);
  EXPECT_EQ(engine.stats().parsed, n);
  EXPECT_EQ(engine.stats().skipped, garbage);

  // The acceptance criterion: byte-identical JointResults.
  EXPECT_EQ(core::to_json(engine.results()), core::to_json(batch.results()));

  // The final checkpoint carries the full session accounting.
  const auto cp = tailer.checkpoint();
  EXPECT_EQ(cp.parsed, n);
  EXPECT_EQ(cp.skipped, garbage);
  EXPECT_EQ(cp.rotations, 1u);
  EXPECT_EQ(cp.truncations, 1u);

  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

}  // namespace
