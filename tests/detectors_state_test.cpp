// Detector-state tests, two families:
//
//  * StateBounds — multi-day streams must not accumulate unbounded
//    per-client state in any detector (the lazy GC sweeps work). These are
//    the tests that keep the 8-day paper-scale run inside memory.
//  * StateRoundTrip / StateRejection — the warm-checkpoint contract of
//    every stateful component (detectors, interner, joiner):
//    serialize -> restore -> serialize is byte-identical, a restored
//    instance behaves identically to the original on the rest of the
//    stream, and a truncated or corrupted blob is rejected with the
//    component reset cold (never a crash, never half-restored state).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "core/joiner.hpp"
#include "detectors/arcane.hpp"
#include "detectors/registry.hpp"
#include "detectors/sentinel.hpp"
#include "stamp.hpp"
#include "stats/rng.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

using divscrape::detectors::ArcaneDetector;
using divscrape::detectors::SentinelDetector;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;

// A stream of one-shot clients: every IP appears once, then never again.
// 400k records spanning ~4.6 simulated days.
template <typename Detector>
std::size_t run_one_shot_clients(Detector& detector) {
  divscrape::stats::Rng rng(123);
  divscrape::test::Stamper stamp;
  LogRecord r;
  for (int i = 0; i < 400'000; ++i) {
    r.ip = Ipv4(static_cast<std::uint32_t>(0x0B000000 + i));  // 11.x.y.z
    r.time = Timestamp(static_cast<std::int64_t>(i) * 1'000'000);
    r.target = "/offers/" + std::to_string(i % 500);
    r.user_agent =
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";
    (void)detector.evaluate(stamp(r));
  }
  return 0;
}

TEST(StateBounds, ArcaneForgetsIdleClients) {
  ArcaneDetector arcane;
  run_one_shot_clients(arcane);
  // 400k distinct clients were seen; only the recent window of clients
  // (one per second, hour-long GC horizon, 100k-eval sweep cadence) may
  // remain tracked.
  EXPECT_LT(arcane.tracked_clients(), 110'000u);
}

TEST(StateBounds, SentinelDropsIdleUnflaggedIps) {
  SentinelDetector sentinel;
  run_one_shot_clients(sentinel);
  // One request per IP never flags anyone; idle entries must be swept.
  // Unswept, the 400k entries would take over 14 MB of state (37+ bytes
  // each); the sweep leaves about the last hour's 3,600.
  divscrape::util::StateWriter w;
  ASSERT_TRUE(sentinel.save_state(w));
  EXPECT_LT(w.take().size(), 1'000'000u);
}

TEST(StateBounds, FlaggedStateSurvivesSweeps) {
  // A client that earned a flag must stay flagged across GC sweeps while
  // its TTL lives, even as unrelated one-shot traffic churns the maps.
  SentinelDetector sentinel;
  divscrape::test::Stamper stamp;
  const Ipv4 attacker(66, 111, 1, 1);  // note: 66.x but not a declared bot
  LogRecord r;
  r.user_agent = "curl/7.58.0";  // instant flag
  r.ip = attacker;
  r.time = Timestamp(0);
  EXPECT_TRUE(sentinel.evaluate(stamp(r)).alert);

  // Churn 150k one-shot clients over ~100 simulated minutes (< TTL).
  divscrape::stats::Rng rng(5);
  LogRecord noise;
  noise.user_agent =
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";
  for (int i = 0; i < 150'000; ++i) {
    noise.ip = Ipv4(static_cast<std::uint32_t>(0x0C000000 + i));
    noise.time = Timestamp(static_cast<std::int64_t>(i) * 40'000);  // 25/s
    (void)sentinel.evaluate(stamp(noise));
  }

  // The attacker returns with a clean browser UA: reputation must hold.
  LogRecord comeback;
  comeback.ip = attacker;
  comeback.time = Timestamp(150'000LL * 40'000);
  comeback.user_agent = noise.user_agent;
  comeback.target = "/offers/1";
  const auto verdict = sentinel.evaluate(stamp(comeback));
  EXPECT_TRUE(verdict.alert);
  EXPECT_EQ(verdict.reason,
            divscrape::detectors::AlertReason::kIpReputation);
}

// ---------------------------------------------------------------------------
// Warm-checkpoint round trips.

// Mixed benign/scraper traffic with enough volume to populate per-client
// windows, reputation entries and template tables in every detector.
const std::vector<LogRecord>& scenario_records() {
  static const std::vector<LogRecord> records =
      divscrape::test::stamped(divscrape::test::catalog_records("smoke"));
  return records;
}

std::string dump(const divscrape::detectors::Detector& d) {
  divscrape::util::StateWriter w;
  EXPECT_TRUE(d.save_state(w));
  return w.take();
}

// The core property, for any detector: split the stream, checkpoint at the
// split, restore into a fresh instance, and require (a) serialize ->
// restore -> serialize byte-identity and (b) verdict-for-verdict identical
// behaviour on the entire remainder of the stream.
void expect_detector_roundtrip(divscrape::detectors::Detector& original,
                               divscrape::detectors::Detector& restored) {
  const auto& records = scenario_records();
  ASSERT_GT(records.size(), 200u);
  const std::size_t split = records.size() / 2;
  for (std::size_t i = 0; i < split; ++i) {
    (void)original.evaluate(records[i]);
  }

  const std::string blob = dump(original);
  ASSERT_FALSE(blob.empty());
  divscrape::util::StateReader r(blob);
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(dump(restored), blob) << "restore is not serialize-stable";

  for (std::size_t i = split; i < records.size(); ++i) {
    const auto a = original.evaluate(records[i]);
    const auto b = restored.evaluate(records[i]);
    ASSERT_EQ(a.alert, b.alert) << "diverged at record " << i;
    ASSERT_EQ(a.reason, b.reason) << "diverged at record " << i;
  }
  EXPECT_EQ(dump(original), dump(restored));
}

// A blob damaged anywhere must be rejected, and rejection must leave the
// component cold — byte-identical to a fresh instance, so a failed warm
// resume degrades exactly to today's cold start.
void expect_detector_rejects_damage(divscrape::detectors::Detector& victim,
                                    const divscrape::detectors::Detector& fresh,
                                    const std::string& blob) {
  const std::string cold = dump(fresh);
  // Truncations at structural boundaries and in the middle of fields.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}, blob.size() / 4,
        blob.size() / 2, blob.size() - 1}) {
    const std::string truncated = blob.substr(0, len);
    divscrape::util::StateReader r(truncated);
    EXPECT_FALSE(victim.load_state(r)) << "accepted truncation to " << len;
    EXPECT_EQ(dump(victim), cold) << "not cold after truncation to " << len;
  }
  // Header corruption: magic, version, and the config fingerprint that
  // immediately follows them must each force a rejection.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{5},
                                std::size_t{9}}) {
    std::string bad = blob;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    divscrape::util::StateReader r(bad);
    EXPECT_FALSE(victim.load_state(r)) << "accepted corruption at " << pos;
    EXPECT_EQ(dump(victim), cold) << "not cold after corruption at " << pos;
  }
}

TEST(StateRoundTrip, SentinelRestoresMidStream) {
  SentinelDetector original;
  SentinelDetector restored;
  expect_detector_roundtrip(original, restored);
}

TEST(StateRoundTrip, ArcaneRestoresMidStream) {
  ArcaneDetector original;
  ArcaneDetector restored;
  expect_detector_roundtrip(original, restored);
}

TEST(StateRejection, SentinelFallsBackColdOnDamage) {
  SentinelDetector original;
  const auto& records = scenario_records();
  for (std::size_t i = 0; i < records.size() / 2; ++i) {
    (void)original.evaluate(records[i]);
  }
  SentinelDetector victim;
  expect_detector_rejects_damage(victim, SentinelDetector{}, dump(original));
}

TEST(StateRejection, ArcaneFallsBackColdOnDamage) {
  ArcaneDetector original;
  const auto& records = scenario_records();
  for (std::size_t i = 0; i < records.size() / 2; ++i) {
    (void)original.evaluate(records[i]);
  }
  ArcaneDetector victim;
  expect_detector_rejects_damage(victim, ArcaneDetector{}, dump(original));
}

// "ARCN" v2 carries interned path templates only; a v1 blob carried a
// path memo in one token space with them, and must resume cold. (The v2
// round trip is ArcaneRestoresMidStream.)
TEST(StateRejection, ArcaneV1BlobFallsBackCold) {
  ArcaneDetector original;
  const auto& records = scenario_records();
  for (std::size_t i = 0; i < records.size() / 2; ++i) {
    (void)original.evaluate(records[i]);
  }
  std::string v1 = dump(original);
  {
    divscrape::util::StateReader header(v1);
    EXPECT_TRUE(divscrape::util::check_tag(header, 0x4152434Eu, 2));
  }
  v1[4] = 1;  // the little-endian u32 version after the "ARCN" magic

  ArcaneDetector victim;
  divscrape::util::StateReader r(v1);
  EXPECT_FALSE(victim.load_state(r));
  EXPECT_EQ(dump(victim), dump(ArcaneDetector{}));
  EXPECT_EQ(victim.tracked_clients(), 0u);
}

TEST(StateRejection, ConfigFingerprintMismatchIsRejected) {
  SentinelDetector original;
  const auto& records = scenario_records();
  for (std::size_t i = 0; i < records.size() / 4; ++i) {
    (void)original.evaluate(records[i]);
  }
  const std::string blob = dump(original);

  divscrape::detectors::SentinelConfig other;
  other.burst_limit += 1;  // any drifted threshold invalidates state
  SentinelDetector reconfigured(other);
  divscrape::util::StateReader r(blob);
  EXPECT_FALSE(reconfigured.load_state(r));
  EXPECT_EQ(dump(reconfigured), dump(SentinelDetector{other}));
}

// ---------------------------------------------------------------------------
// Pinned blobs, written by the detectors before they dropped their UA
// interner. "SNTL" v1 and "ARCN" v2 keep that interner's section, and every
// writer has left it empty ("INTN" v1, a count of 0), so a stamped run's
// blob must load warm and re-save byte for byte. A detector of that time
// that saw unstamped records wrote a non-empty section; that blob must be
// rejected, leaving the detector cold.

/// The three records the pinned blobs were captured after.
std::vector<LogRecord> pinned_stream(bool stamped) {
  const char* curl = "curl/7.58.0";
  const char* chrome =
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";
  struct Row {
    std::uint8_t host;
    int second;
    const char* target;
    const char* ua;
    std::uint32_t token;
  };
  const Row rows[] = {{1, 1, "/offers/1", curl, 1},
                      {1, 2, "/offers/2", curl, 1},
                      {2, 3, "/search", chrome, 2}};
  std::vector<LogRecord> out;
  for (const Row& row : rows) {
    LogRecord r;
    r.ip = Ipv4(10, 0, 0, row.host);
    r.time = Timestamp(static_cast<std::int64_t>(row.second) * 1'000'000);
    r.target = row.target;
    r.user_agent = row.ua;
    r.ua_token = stamped ? row.token : 0;
    out.push_back(r);
  }
  return out;
}

std::string unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)),
                                               nullptr, 16)));
  return out;
}

// "SNTL" after the stamped stream: 217 bytes.
constexpr const char* kSentinelBlob =
    "4c544e5301000000000000000000244019000000000000000000000000004e40"
    "3c00000000000000000000000018f54003000000000000000800000000000000"
    "0101010300000000000000c0c62d00000000004e544e49010000000000000000"
    "00000002000000000000000100000a020000000000000040420f000000000080"
    "841e000000000080e4f51d140000000180841e00000000000200000a01000000"
    "00000000c0c62d0000000000000000000000000000c0c62d0000000000010000"
    "00000000000000000a01000000000000000000000000000000";

// "ARCN" after the stamped stream: 475 bytes.
constexpr const char* kArcaneBlob =
    "4e435241020000000000000000005e400a00000000000000333333333333e33f"
    "666666666666d63fcdccccccccccdc3f333333333333d33f333333333333c33f"
    "9a9999999999d93f333333333333d33f333333333333d33fcdcccccccccce43f"
    "9a9999999999d93f000000000000d03ff0000000000000003c00000000000000"
    "1800000000000000333333333333c33f333333333333c33f333333333333d33f"
    "9a9999999999b93f02000000000000001e000000000000000300000000000000"
    "4e544e490100000000000000000000004e544e49010000000200000000000000"
    "0b000000000000002f6f66666572732f7b6e7d07000000000000002f73656172"
    "636802000000000000000100000a01000000020000000000000040420f000000"
    "0000010000000080841e00000000000100000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000001000000"
    "0000000001000000020000000000000080841e0000000000090200000a020000"
    "000100000000000000c0c62d0000000000020000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000100"
    "000000000000020000000100000000000000c0c62d00000000000c";

// "SNTL" after the same stream unstamped (a non-empty UA section): 359 bytes.
constexpr const char* kSentinelUnstampedBlob =
    "4c544e5301000000000000000000244019000000000000000000000000004e40"
    "3c00000000000000000000000018f54003000000000000000800000000000000"
    "0101010300000000000000c0c62d00000000004e544e49010000000200000000"
    "0000000b000000000000006375726c2f372e35382e3073000000000000004d6f"
    "7a696c6c612f352e30202857696e646f7773204e542031302e303b2057696e36"
    "343b2078363429204170706c655765624b69742f3533372e333620284b48544d"
    "4c2c206c696b65204765636b6f29204368726f6d652f36342e302e333238322e"
    "313836205361666172692f3533372e333602000000000000000100000a020000"
    "000000000040420f000000000080841e000000000080e4f51d14000000018084"
    "1e00000000000200000a0100000000000000c0c62d0000000000000000000000"
    "000000c0c62d000000000001000000000000000000000a010000000000000000"
    "00000000000000";

// "ARCN" after the same stream unstamped (a non-empty UA section): 617 bytes.
constexpr const char* kArcaneUnstampedBlob =
    "4e435241020000000000000000005e400a00000000000000333333333333e33f"
    "666666666666d63fcdccccccccccdc3f333333333333d33f333333333333c33f"
    "9a9999999999d93f333333333333d33f333333333333d33fcdcccccccccce43f"
    "9a9999999999d93f000000000000d03ff0000000000000003c00000000000000"
    "1800000000000000333333333333c33f333333333333c33f333333333333d33f"
    "9a9999999999b93f02000000000000001e000000000000000300000000000000"
    "4e544e490100000002000000000000000b000000000000006375726c2f372e35"
    "382e3073000000000000004d6f7a696c6c612f352e30202857696e646f777320"
    "4e542031302e303b2057696e36343b2078363429204170706c655765624b6974"
    "2f3533372e333620284b48544d4c2c206c696b65204765636b6f29204368726f"
    "6d652f36342e302e333238322e313836205361666172692f3533372e33364e54"
    "4e490100000002000000000000000b000000000000002f6f66666572732f7b6e"
    "7d07000000000000002f73656172636802000000000000000100000a01000080"
    "020000000000000040420f0000000000010000000080841e0000000000010000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000001000000000000000100000002000000000000008084"
    "1e0000000000090200000a020000800100000000000000c0c62d000000000002"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000100000000000000020000000100000000000000"
    "c0c62d00000000000c";

/// Today's detector writes the pinned bytes after the pinned stream; a
/// fresh one loads them warm, re-saves them unchanged, and judges the next
/// record as the detector that ran the stream does.
template <typename D>
void expect_pinned_blob_resumes_warm(const std::string& blob) {
  D ran;
  for (const auto& record : pinned_stream(true)) (void)ran.evaluate(record);
  EXPECT_EQ(dump(ran), blob);

  D restored;
  divscrape::util::StateReader r(blob);
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(dump(restored), blob);
  LogRecord next = pinned_stream(true)[0];
  next.time = Timestamp(4'000'000);
  const auto want = ran.evaluate(next);
  const auto got = restored.evaluate(next);
  EXPECT_EQ(got.alert, want.alert);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(dump(restored), dump(ran));
}

template <typename D>
void expect_rejected_cold(const std::string& blob) {
  D victim;
  for (const auto& record : pinned_stream(true)) (void)victim.evaluate(record);
  divscrape::util::StateReader r(blob);
  EXPECT_FALSE(victim.load_state(r));
  EXPECT_EQ(dump(victim), dump(D{}));
}

TEST(StateRoundTrip, PinnedSentinelBlobResumesWarm) {
  expect_pinned_blob_resumes_warm<SentinelDetector>(unhex(kSentinelBlob));
}

TEST(StateRoundTrip, PinnedArcaneBlobResumesWarm) {
  expect_pinned_blob_resumes_warm<ArcaneDetector>(unhex(kArcaneBlob));
}

TEST(StateRejection, NonEmptyUaSectionFallsBackCold) {
  expect_rejected_cold<SentinelDetector>(unhex(kSentinelUnstampedBlob));
  expect_rejected_cold<ArcaneDetector>(unhex(kArcaneUnstampedBlob));
}

TEST(StateRoundTrip, InternerRebuildsIdenticalTokenSpace) {
  divscrape::util::StringInterner original;
  divscrape::stats::Rng rng(77);
  std::vector<std::string> strings;
  for (int i = 0; i < 500; ++i) {
    strings.push_back("ua-" + std::to_string(rng.uniform_int(0, 199)));
    (void)original.intern(strings.back());
  }
  divscrape::util::StateWriter w;
  original.save_state(w);
  const std::string blob = w.take();

  divscrape::util::StringInterner restored;
  divscrape::util::StateReader r(blob);
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.size(), original.size());
  // Every string maps to the same token, and new strings keep allocating
  // identically (the probe-table layout survived the rebuild).
  for (const auto& s : strings) {
    EXPECT_EQ(restored.intern(s), original.intern(s));
  }
  EXPECT_EQ(restored.intern("never-seen"), original.intern("never-seen"));

  divscrape::util::StateWriter w2;
  restored.save_state(w2);
  divscrape::util::StateWriter w3;
  original.save_state(w3);
  EXPECT_EQ(w2.take(), w3.take());
}

TEST(StateRejection, InternerRejectsTruncationAndClears) {
  divscrape::util::StringInterner original;
  for (int i = 0; i < 50; ++i) (void)original.intern("s" + std::to_string(i));
  divscrape::util::StateWriter w;
  original.save_state(w);
  const std::string blob = w.take();
  for (const std::size_t len : {std::size_t{0}, std::size_t{6}, blob.size() / 2,
                                blob.size() - 1}) {
    divscrape::util::StringInterner victim;
    (void)victim.intern("pre-existing");
    const std::string truncated = blob.substr(0, len);
    divscrape::util::StateReader r(truncated);
    EXPECT_FALSE(victim.load_state(r)) << "accepted truncation to " << len;
    EXPECT_EQ(victim.size(), 0u) << "not cleared after truncation to " << len;
  }
}

TEST(StateRoundTrip, AlertJoinerRestoresResultsAndPool) {
  const auto& records = scenario_records();
  const std::size_t split = records.size() / 2;

  const auto pool_a = divscrape::detectors::make_paper_pair();
  divscrape::core::AlertJoiner original(pool_a);
  for (std::size_t i = 0; i < split; ++i) (void)original.process(records[i]);

  divscrape::util::StateWriter w;
  ASSERT_TRUE(original.save_state(w));
  const std::string blob = w.take();

  const auto pool_b = divscrape::detectors::make_paper_pair();
  divscrape::core::AlertJoiner restored(pool_b);
  divscrape::util::StateReader r(blob);
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(divscrape::core::to_json(restored.results()),
            divscrape::core::to_json(original.results()));

  for (std::size_t i = split; i < records.size(); ++i) {
    (void)original.process(records[i]);
    (void)restored.process(records[i]);
  }
  EXPECT_EQ(divscrape::core::to_json(restored.results()),
            divscrape::core::to_json(original.results()));
}

TEST(StateRejection, AlertJoinerRejectsTruncationAndResetsCold) {
  const auto& records = scenario_records();
  const auto pool = divscrape::detectors::make_paper_pair();
  divscrape::core::AlertJoiner original(pool);
  for (std::size_t i = 0; i < records.size() / 2; ++i) {
    (void)original.process(records[i]);
  }
  divscrape::util::StateWriter w;
  ASSERT_TRUE(original.save_state(w));
  const std::string blob = w.take();

  const auto cold_json = [] {
    const auto p = divscrape::detectors::make_paper_pair();
    return divscrape::core::to_json(divscrape::core::AlertJoiner(p).results());
  }();
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{12}, blob.size() / 3, blob.size() - 1}) {
    const auto p = divscrape::detectors::make_paper_pair();
    divscrape::core::AlertJoiner victim(p);
    (void)victim.process(records[0]);
    const std::string truncated = blob.substr(0, len);
    divscrape::util::StateReader r(truncated);
    EXPECT_FALSE(victim.load_state(r)) << "accepted truncation to " << len;
    EXPECT_EQ(divscrape::core::to_json(victim.results()), cold_json)
        << "not cold after truncation to " << len;
  }
}

}  // namespace
