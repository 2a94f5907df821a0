// Checkpointed-resume tests: the exactly-once ingest contract documented
// in checkpoint.hpp. A tailer killed at an arbitrary point — between
// records, mid-torn-write, after a rotation — and resumed from its saved
// checkpoint must deliver every record exactly once: the capture logs of
// the two engine incarnations concatenate to precisely the one-shot
// record sequence, and the cumulative accounting survives the JSON
// serialize -> parse round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "capture_detector.hpp"
#include "catalog_stream.hpp"
#include "core/json.hpp"
#include "httplog/clf.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/tailer.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"
#include "util/atomic_file.hpp"
#include "util/state.hpp"

namespace {

using namespace divscrape;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "divscrape_cp_" + name;
}

std::vector<httplog::LogRecord> smoke_records(std::size_t count) {
  auto records = test::catalog_records("smoke");
  if (records.size() > count) records.resize(count);
  return records;
}

std::vector<std::string> wire_lines(
    const std::vector<httplog::LogRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& r : records) lines.push_back(httplog::format_clf(r));
  return lines;
}

TEST(Checkpoint, JsonRoundTripPreservesEveryField) {
  pipeline::Checkpoint cp;
  cp.inode = 1234567;
  cp.offset = 987654321;
  cp.sig_len = 64;
  cp.sig_hash = 0xdeadbeefcafef00dULL;
  cp.lines = 1000;
  cp.parsed = 990;
  cp.skipped = 10;
  cp.rotations = 3;
  cp.truncations = 1;
  cp.lost_incarnations = 2;
  // Arbitrary binary state, including NUL and high bytes: the blob must
  // survive the base64 embedding byte-for-byte.
  cp.state = std::string("\x00\x01\xfe\xffstate{}\"\\\n", 14);
  const auto parsed = pipeline::Checkpoint::from_json(cp.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == cp);
}

// A checkpoint written by the v2 schema (prefix signature but no state
// blob) must still load, with detection-state empty = cold resume.
TEST(Checkpoint, LoadsV2SchemaWithColdState) {
  const std::string v2 =
      "{\"schema\":\"divscrape.checkpoint.v2\",\"inode\":42,\"offset\":4096,"
      "\"sig_len\":64,\"sig_hash\":123456,\"lines\":100,\"parsed\":98,"
      "\"skipped\":2,\"rotations\":1,\"truncations\":0,"
      "\"lost_incarnations\":3}";
  const auto parsed = pipeline::Checkpoint::from_json(v2);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sig_len, 64u);
  EXPECT_EQ(parsed->sig_hash, 123456u);
  EXPECT_EQ(parsed->lost_incarnations, 3u);
  EXPECT_TRUE(parsed->state.empty());
}

// Pin of the exact v3 wire format: a byte-for-byte sample that future
// writers must keep loadable (the compat matrix in checkpoint.hpp).
TEST(Checkpoint, LoadsPinnedV3Sample) {
  const std::string v3 =
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":7,\"offset\":512,"
      "\"sig_len\":64,\"sig_hash\":99,\"lines\":10,\"parsed\":9,"
      "\"skipped\":1,\"rotations\":0,\"truncations\":0,"
      "\"lost_incarnations\":0,\"state_b64\":\"d2FybQ==\"}";
  const auto parsed = pipeline::Checkpoint::from_json(v3);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->offset, 512u);
  EXPECT_EQ(parsed->state, "warm");
}

// A v3 checkpoint whose blob is not valid base64 must still load — with
// the state dropped (cold), because a damaged blob must never cost the
// ingest offset.
TEST(Checkpoint, UndecodableStateBlobDegradesToCold) {
  const std::string v3 =
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":7,\"offset\":512,"
      "\"sig_len\":0,\"sig_hash\":0,\"lines\":10,\"parsed\":9,"
      "\"skipped\":1,\"rotations\":0,\"truncations\":0,"
      "\"lost_incarnations\":0,\"state_b64\":\"!!!not-base64!!!\"}";
  const auto parsed = pipeline::Checkpoint::from_json(v3);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->offset, 512u);
  EXPECT_TRUE(parsed->state.empty());
}

// A crash mid-commit (fault-injected into write_file_atomic) must leave
// the previous checkpoint untouched on disk, with only a torn .tmp
// sibling as evidence — offset and state can never be observed torn apart.
TEST(Checkpoint, TornCommitPreservesPreviousCheckpoint) {
  const auto path = temp_path("torn_commit.json");
  pipeline::Checkpoint first;
  first.inode = 1;
  first.offset = 100;
  first.parsed = 10;
  first.state = "generation-one-state";
  ASSERT_TRUE(first.save(path));

  pipeline::Checkpoint second = first;
  second.offset = 200;
  second.parsed = 20;
  second.state = "generation-two-state";
  util::fail_next_atomic_write_after(25);  // torn mid-payload
  EXPECT_FALSE(second.save(path));

  const auto loaded = pipeline::Checkpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(*loaded == first) << "torn commit damaged the previous file";
  // The torn sibling is what a real crash leaves; the next successful save
  // must replace it cleanly.
  ASSERT_TRUE(second.save(path));
  const auto after = pipeline::Checkpoint::load(path);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(*after == second);
  std::remove(path.c_str());
}

TEST(TailSessionState, RoundTripsLogsAndState) {
  pipeline::TailSessionState session;
  pipeline::Checkpoint a;
  a.inode = 11;
  a.offset = 1111;
  a.parsed = 11;
  pipeline::Checkpoint b;
  b.inode = 22;
  b.offset = 2222;
  b.parsed = 22;
  b.rotations = 1;
  session.logs.emplace_back("/var/log/a.log", a);
  session.logs.emplace_back("/var/log/b.log", b);
  session.state = std::string("\x01\x00\xff shared", 10);

  const auto parsed = pipeline::TailSessionState::from_json(session.to_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->logs.size(), 2u);
  EXPECT_EQ(parsed->logs[0].first, "/var/log/a.log");
  EXPECT_TRUE(parsed->logs[0].second == a);
  EXPECT_EQ(parsed->logs[1].first, "/var/log/b.log");
  EXPECT_TRUE(parsed->logs[1].second == b);
  EXPECT_EQ(parsed->state, session.state);
}

TEST(TailSessionState, RejectsMalformedInput) {
  EXPECT_FALSE(pipeline::TailSessionState::from_json("").has_value());
  EXPECT_FALSE(pipeline::TailSessionState::from_json("{}").has_value());
  EXPECT_FALSE(pipeline::TailSessionState::from_json(
                   "{\"schema\":\"divscrape.checkpoint.v3\"}")
                   .has_value());
  // Right schema, log entry without a path.
  EXPECT_FALSE(pipeline::TailSessionState::from_json(
                   "{\"schema\":\"divscrape.tail_session.v3\","
                   "\"logs\":[{\"offset\":1}],\"state_b64\":\"\"}")
                   .has_value());
}

// --- Writer bytes ---------------------------------------------------------
//
// The checkpoint writers encode the state blob straight into the reserved
// document (JsonWriter::value_base64). The files must stay byte-identical
// to the plain JsonWriter serialization the schemas were defined with,
// blob encoded first and written as an ordinary string value, so that
// route is kept here as the reference, and a few outputs are pinned as
// literals.

void reference_fields(core::JsonWriter& json, const pipeline::Checkpoint& cp) {
  json.key("inode").value(cp.inode);
  json.key("offset").value(cp.offset);
  json.key("sig_len").value(cp.sig_len);
  json.key("sig_hash").value(cp.sig_hash);
  json.key("lines").value(cp.lines);
  json.key("parsed").value(cp.parsed);
  json.key("skipped").value(cp.skipped);
  json.key("rotations").value(cp.rotations);
  json.key("truncations").value(cp.truncations);
  json.key("lost_incarnations").value(cp.lost_incarnations);
}

std::string reference_json(const pipeline::Checkpoint& cp) {
  std::string out;
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("divscrape.checkpoint.v3");
  reference_fields(json, cp);
  json.key("state_b64").value(util::base64_encode(cp.state));
  json.end_object();
  return out;
}

std::string reference_json(const pipeline::TailSessionState& session) {
  std::string out;
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("divscrape.tail_session.v3");
  json.key("logs").begin_array();
  for (const auto& [path, cp] : session.logs) {
    json.begin_object();
    json.key("path").value(path);
    reference_fields(json, cp);
    json.end_object();
  }
  json.end_array();
  json.key("state_b64").value(util::base64_encode(session.state));
  json.end_object();
  return out;
}

// `n` bytes that walk through every byte value, NUL and high bytes included.
std::string byte_blob(std::size_t n) {
  std::string blob(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    blob[i] = static_cast<char>((i * 37 + 11) & 0xFF);
  return blob;
}

pipeline::Checkpoint numbered_checkpoint(std::uint64_t seed) {
  pipeline::Checkpoint cp;
  cp.inode = 1000 + seed;
  cp.offset = 4096 * seed;
  cp.sig_len = seed == 0 ? 0 : 64;
  cp.sig_hash = 0xfedcba9876543210ULL ^ seed;
  cp.lines = 10 * seed + 1;
  cp.parsed = 9 * seed;
  cp.skipped = seed;
  cp.rotations = seed / 2;
  cp.truncations = seed / 3;
  cp.lost_incarnations = seed / 4;
  return cp;
}

// A session's log entry is read by the standalone v2+ rules: every member
// is required (none defaults to 0).
TEST(TailSessionState, LogEntryNeedsEveryCheckpointMember) {
  pipeline::TailSessionState session;
  session.logs.emplace_back("a.log", numbered_checkpoint(1));
  const std::string json = session.to_json();
  ASSERT_TRUE(pipeline::TailSessionState::from_json(json).has_value());
  for (const char* member :
       {",\"inode\":1001", ",\"offset\":4096", ",\"sig_len\":64",
        ",\"parsed\":9", ",\"lost_incarnations\":0"}) {
    std::string missing = json;
    const auto at = missing.find(member);
    ASSERT_NE(at, std::string::npos) << member;
    missing.erase(at, std::strlen(member));
    EXPECT_FALSE(pipeline::TailSessionState::from_json(missing).has_value())
        << missing;
  }
}

// Every padding case (length mod 3 = 0, 1, 2), short and long blobs.
TEST(CheckpointBytes, ToJsonMatchesTheJsonWriterPath) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n : {3000, 3001, 3002, 65536, 65537, 65538})
    lengths.push_back(n);
  for (const std::size_t n : lengths) {
    pipeline::Checkpoint cp = numbered_checkpoint(n);
    cp.state = byte_blob(n);
    EXPECT_EQ(cp.to_json(), reference_json(cp)) << "blob length " << n;

    pipeline::TailSessionState session;
    session.logs.emplace_back("/var/log/www.log", numbered_checkpoint(n + 1));
    session.logs.emplace_back("m.log", numbered_checkpoint(n + 2));
    session.state = byte_blob(n);
    EXPECT_EQ(session.to_json(), reference_json(session))
        << "blob length " << n;
  }
  // No logs at all is a valid (empty) session.
  pipeline::TailSessionState empty;
  EXPECT_EQ(empty.to_json(), reference_json(empty));
}

TEST(CheckpointBytes, SessionLogPathsAreEscapedLikeJsonWriter) {
  pipeline::TailSessionState session;
  session.logs.emplace_back("dir/\"quoted\"\\back\tslash\n\x01\x1f\x7f.log",
                            numbered_checkpoint(3));
  session.logs.emplace_back("caf\xc3\xa9/\xe2\x82\xac.log",
                            numbered_checkpoint(4));
  session.state = byte_blob(5);
  EXPECT_EQ(session.to_json(), reference_json(session));
  const auto parsed = pipeline::TailSessionState::from_json(session.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->logs[0].first, session.logs[0].first);
  EXPECT_EQ(parsed->logs[1].first, session.logs[1].first);
}

TEST(CheckpointBytes, PinnedCheckpointBytes) {
  const std::string pinned[] = {
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":1000,"
      "\"offset\":0,\"sig_len\":0,\"sig_hash\":18364758544493064720,"
      "\"lines\":1,\"parsed\":0,\"skipped\":0,\"rotations\":0,"
      "\"truncations\":0,\"lost_incarnations\":0,\"state_b64\":\"\"}",
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":1001,"
      "\"offset\":4096,\"sig_len\":64,\"sig_hash\":18364758544493064721,"
      "\"lines\":11,\"parsed\":9,\"skipped\":1,\"rotations\":0,"
      "\"truncations\":0,\"lost_incarnations\":0,\"state_b64\":\"Cw==\"}",
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":1002,"
      "\"offset\":8192,\"sig_len\":64,\"sig_hash\":18364758544493064722,"
      "\"lines\":21,\"parsed\":18,\"skipped\":2,\"rotations\":1,"
      "\"truncations\":0,\"lost_incarnations\":0,\"state_b64\":\"CzA=\"}",
      "{\"schema\":\"divscrape.checkpoint.v3\",\"inode\":1003,"
      "\"offset\":12288,\"sig_len\":64,\"sig_hash\":18364758544493064723,"
      "\"lines\":31,\"parsed\":27,\"skipped\":3,\"rotations\":1,"
      "\"truncations\":1,\"lost_incarnations\":0,\"state_b64\":\"CzBV\"}",
  };
  for (std::size_t n = 0; n < 4; ++n) {
    pipeline::Checkpoint cp = numbered_checkpoint(n);
    cp.state = byte_blob(n);
    EXPECT_EQ(cp.to_json(), pinned[n]) << "blob length " << n;
  }
}

TEST(CheckpointBytes, PinnedSessionBytes) {
  pipeline::TailSessionState session;
  session.logs.emplace_back("logs/\"a\"\\b\t.log", numbered_checkpoint(1));
  session.logs.emplace_back("b.log", numbered_checkpoint(2));
  session.state = byte_blob(7);
  const std::string pinned =
      "{\"schema\":\"divscrape.tail_session.v3\",\"logs\":["
      "{\"path\":\"logs/\\\"a\\\"\\\\b\\t.log\",\"inode\":1001,\"offset\":4096,"
      "\"sig_len\":64,\"sig_hash\":18364758544493064721,"
      "\"lines\":11,\"parsed\":9,\"skipped\":1,\"rotations\":0,"
      "\"truncations\":0,\"lost_incarnations\":0},{\"path\":\"b.log\","
      "\"inode\":1002,\"offset\":8192,\"sig_len\":64,"
      "\"sig_hash\":18364758544493064722,\"lines\":21,"
      "\"parsed\":18,\"skipped\":2,\"rotations\":1,\"truncations\":0,"
      "\"lost_incarnations\":0}],\"state_b64\":\"CzBVep/E6Q==\"}";
  EXPECT_EQ(session.to_json(), pinned);
}

TEST(CheckpointBytes, SaveWritesTheJsonAndOneNewline) {
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const auto cp_path = temp_path("bytes_cp.json");
  pipeline::Checkpoint cp = numbered_checkpoint(5);
  cp.state = byte_blob(1000);
  ASSERT_TRUE(cp.save(cp_path));
  EXPECT_EQ(read_all(cp_path), reference_json(cp) + "\n");

  const auto session_path = temp_path("bytes_session.json");
  pipeline::TailSessionState session;
  session.logs.emplace_back("a \"b\".log", numbered_checkpoint(6));
  session.state = byte_blob(1001);
  ASSERT_TRUE(session.save(session_path));
  EXPECT_EQ(read_all(session_path), reference_json(session) + "\n");
  std::remove(cp_path.c_str());
  std::remove(session_path.c_str());
}

TEST(TailSessionState, TornCommitPreservesPreviousSession) {
  const auto path = temp_path("torn_session.json");
  pipeline::TailSessionState first;
  first.logs.emplace_back("a.log", pipeline::Checkpoint{});
  first.state = "one";
  ASSERT_TRUE(first.save(path));

  pipeline::TailSessionState second;
  second.logs.emplace_back("a.log", pipeline::Checkpoint{});
  second.state = "two";
  util::fail_next_atomic_write_after(30);
  EXPECT_FALSE(second.save(path));

  const auto loaded = pipeline::TailSessionState::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, "one");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// A checkpoint written by the v1 schema (before the prefix signature and
// the lost-incarnation counter existed) must still load; the new fields
// default to 0 = "unknown", which resume treats as "skip the check".
TEST(Checkpoint, LoadsV1SchemaWithNewFieldsDefaulted) {
  const std::string v1 =
      "{\"schema\":\"divscrape.checkpoint.v1\",\"inode\":42,\"offset\":4096,"
      "\"lines\":100,\"parsed\":98,\"skipped\":2,\"rotations\":1,"
      "\"truncations\":0}";
  const auto parsed = pipeline::Checkpoint::from_json(v1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->inode, 42u);
  EXPECT_EQ(parsed->offset, 4096u);
  EXPECT_EQ(parsed->parsed, 98u);
  EXPECT_EQ(parsed->sig_len, 0u);
  EXPECT_EQ(parsed->sig_hash, 0u);
  EXPECT_EQ(parsed->lost_incarnations, 0u);
}

TEST(Checkpoint, RejectsMalformedInput) {
  EXPECT_FALSE(pipeline::Checkpoint::from_json("").has_value());
  EXPECT_FALSE(pipeline::Checkpoint::from_json("{}").has_value());
  EXPECT_FALSE(pipeline::Checkpoint::from_json(
                   "{\"schema\":\"divscrape.bench_throughput.v1\"}")
                   .has_value());
  // Right schema, missing members.
  EXPECT_FALSE(pipeline::Checkpoint::from_json(
                   "{\"schema\":\"divscrape.checkpoint.v1\",\"offset\":3}")
                   .has_value());
}

TEST(Checkpoint, SaveIsAtomicAndLoadsBack) {
  const auto path = temp_path("save_load.json");
  pipeline::Checkpoint cp;
  cp.inode = 42;
  cp.offset = 4096;
  cp.parsed = 17;
  ASSERT_TRUE(cp.save(path));
  const auto loaded = pipeline::Checkpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(*loaded == cp);
  // The temp sibling must not linger after the rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
  EXPECT_FALSE(pipeline::Checkpoint::load(path).has_value());
}

// Kill the tailer at a random record index (checkpointing through a JSON
// round trip, as a real process restart would), resume with a fresh
// engine + tailer, and require exactly-once delivery.
TEST(Checkpoint, KillAndResumeNeverReingestsOrDrops) {
  const auto records = smoke_records(120);
  ASSERT_EQ(records.size(), 120u);
  const auto expected = wire_lines(records);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    stats::Rng rng(seed);
    const auto kill_at = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(records.size()) - 2));
    const auto log = temp_path("kill_" + std::to_string(seed) + ".log");
    traffic::StreamWriter writer(log);

    std::vector<std::string> captured;
    pipeline::Checkpoint saved;
    {
      const auto pool = divscrape_test::capture_pool(&captured);
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      for (std::size_t i = 0; i < kill_at; ++i) {
        writer.write(records[i]);
        if (rng.bernoulli(0.4)) (void)tailer.poll();
      }
      (void)tailer.poll();
      const auto cp = tailer.checkpoint();
      EXPECT_EQ(cp.parsed, kill_at);
      // Through the wire, exactly as a restart would read it back.
      const auto roundtrip = pipeline::Checkpoint::from_json(cp.to_json());
      ASSERT_TRUE(roundtrip.has_value());
      EXPECT_TRUE(*roundtrip == cp);
      saved = *roundtrip;
    }  // tailer + engine die here: the "kill"

    {
      const auto pool = divscrape_test::capture_pool(&captured);
      pipeline::ReplayEngine engine(pool);
      pipeline::LogTailer tailer(log, engine);
      EXPECT_TRUE(tailer.resume(saved));
      for (std::size_t i = kill_at; i < records.size(); ++i) {
        writer.write(records[i]);
        if (rng.bernoulli(0.4)) (void)tailer.poll();
      }
      (void)tailer.poll();
      const auto final_cp = tailer.checkpoint();
      EXPECT_EQ(final_cp.parsed, records.size());
      EXPECT_EQ(final_cp.lines, records.size());
      EXPECT_EQ(final_cp.skipped, 0u);
    }
    EXPECT_EQ(captured, expected) << "seed " << seed;
    std::remove(log.c_str());
  }
}

// Kill while a torn write is in flight: the checkpoint's offset must stop
// at the last completed line, and resume must re-read the torn prefix from
// the file so the record is delivered exactly once when its tail arrives.
TEST(Checkpoint, KillMidTornWriteReplaysOnlyThePartial) {
  const auto records = smoke_records(20);
  ASSERT_EQ(records.size(), 20u);
  const auto log = temp_path("torn.log");
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  pipeline::Checkpoint saved;
  const std::string torn = httplog::format_clf(records[10]) + "\n";
  std::uint64_t committed_offset = 0;
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < 10; ++i) writer.write(records[i]);
    (void)tailer.poll();
    committed_offset = writer.bytes_written();
    writer.write_bytes(std::string_view(torn).substr(0, torn.size() / 2));
    (void)tailer.poll();  // sees the torn prefix, holds it as a partial
    EXPECT_TRUE(engine.decoder().has_partial_line());
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.offset, committed_offset);  // partial bytes not committed
    EXPECT_EQ(cp.parsed, 10u);
    saved = cp;
  }

  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    EXPECT_TRUE(tailer.resume(saved));
    writer.write_bytes(std::string_view(torn).substr(torn.size() / 2));
    for (std::size_t i = 11; i < records.size(); ++i) writer.write(records[i]);
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, records.size());
  }
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
}

// Rotation happens while the tailer is up; the kill happens afterwards, so
// the checkpoint refers to the *new* incarnation. Resume must honor it.
TEST(Checkpoint, RotatedFileThenResume) {
  const auto records = smoke_records(90);
  ASSERT_EQ(records.size(), 90u);
  const auto log = temp_path("rotated.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  pipeline::Checkpoint saved;
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < 30; ++i) writer.write(records[i]);
    (void)tailer.poll();
    writer.rotate(rotated);
    for (std::size_t i = 30; i < 60; ++i) writer.write(records[i]);
    (void)tailer.poll();  // follows the rotation into the new file
    EXPECT_EQ(tailer.rotations(), 1u);
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.parsed, 60u);
    EXPECT_EQ(cp.rotations, 1u);
    saved = cp;
  }

  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    EXPECT_TRUE(tailer.resume(saved));  // inode is the new incarnation's
    for (std::size_t i = 60; i < records.size(); ++i) writer.write(records[i]);
    (void)tailer.poll();
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.parsed, records.size());
    EXPECT_EQ(cp.rotations, 1u);  // cumulative count carried through resume
  }
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

// The file was rotated away and recreated while the process was down: the
// checkpoint's inode no longer matches, so the offset is discarded and the
// new incarnation is read from 0 — still exactly-once, because the old
// incarnation's records were all committed before the kill.
TEST(Checkpoint, ReplacedWhileDownRestartsAtZeroWithoutDuplicates) {
  const auto records = smoke_records(50);
  ASSERT_EQ(records.size(), 50u);
  const auto log = temp_path("replaced.log");
  const auto rotated = log + ".1";
  traffic::StreamWriter writer(log);

  std::vector<std::string> captured;
  pipeline::Checkpoint saved;
  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    for (std::size_t i = 0; i < 25; ++i) writer.write(records[i]);
    (void)tailer.poll();
    saved = tailer.checkpoint();
    EXPECT_EQ(saved.parsed, 25u);
  }

  writer.rotate(rotated);  // logrotate ran while we were down
  for (std::size_t i = 25; i < records.size(); ++i) writer.write(records[i]);

  {
    const auto pool = divscrape_test::capture_pool(&captured);
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(log, engine);
    EXPECT_FALSE(tailer.resume(saved));  // inode mismatch: offset discarded
    (void)tailer.poll();
    const auto cp = tailer.checkpoint();
    EXPECT_EQ(cp.parsed, records.size());
  }
  EXPECT_EQ(captured, wire_lines(records));
  std::remove(log.c_str());
  std::remove(rotated.c_str());
}

}  // namespace
