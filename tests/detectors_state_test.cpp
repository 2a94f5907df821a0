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
#include <vector>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "core/joiner.hpp"
#include "detectors/arcane.hpp"
#include "detectors/registry.hpp"
#include "detectors/sentinel.hpp"
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
  LogRecord r;
  for (int i = 0; i < 400'000; ++i) {
    r.ip = Ipv4(static_cast<std::uint32_t>(0x0B000000 + i));  // 11.x.y.z
    r.time = Timestamp(static_cast<std::int64_t>(i) * 1'000'000);
    r.target = "/offers/" + std::to_string(i % 500);
    r.user_agent =
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";
    (void)detector.evaluate(r);
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
  EXPECT_EQ(sentinel.flagged_ips(), 0u);
}

TEST(StateBounds, FlaggedStateSurvivesSweeps) {
  // A client that earned a flag must stay flagged across GC sweeps while
  // its TTL lives, even as unrelated one-shot traffic churns the maps.
  SentinelDetector sentinel;
  const Ipv4 attacker(66, 111, 1, 1);  // note: 66.x but not a declared bot
  LogRecord r;
  r.user_agent = "curl/7.58.0";  // instant flag
  r.ip = attacker;
  r.time = Timestamp(0);
  EXPECT_TRUE(sentinel.evaluate(r).alert);

  // Churn 150k one-shot clients over ~100 simulated minutes (< TTL).
  divscrape::stats::Rng rng(5);
  LogRecord noise;
  noise.user_agent =
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
      "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36";
  for (int i = 0; i < 150'000; ++i) {
    noise.ip = Ipv4(static_cast<std::uint32_t>(0x0C000000 + i));
    noise.time = Timestamp(static_cast<std::int64_t>(i) * 40'000);  // 25/s
    (void)sentinel.evaluate(noise);
  }

  // The attacker returns with a clean browser UA: reputation must hold.
  LogRecord comeback;
  comeback.ip = attacker;
  comeback.time = Timestamp(150'000LL * 40'000);
  comeback.user_agent = noise.user_agent;
  comeback.target = "/offers/1";
  const auto verdict = sentinel.evaluate(comeback);
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
      divscrape::test::catalog_records("smoke");
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
