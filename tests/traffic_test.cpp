// Traffic-simulator tests: stream ordering and determinism, actor
// behavioural properties, scenario population structure, and wire-format
// compatibility of everything the simulator emits — all over the catalog
// `smoke` and `amadeus_like` streams the WorkloadEngine generates.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "catalog_stream.hpp"
#include "httplog/clf.hpp"
#include "httplog/url.hpp"
#include "httplog/useragent.hpp"
#include "traffic/actor.hpp"

namespace {

using divscrape::httplog::parse_clf;
using divscrape::httplog::Timestamp;
using divscrape::httplog::Truth;
using divscrape::test::catalog_records;
using divscrape::test::catalog_spec;
using divscrape::test::records_of;
using divscrape::traffic::ActorClass;

TEST(Generator, RecordsAreTimeOrdered) {
  const auto records = catalog_records("smoke");
  Timestamp last(INT64_MIN);
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_GE(records[i].time, last) << "record " << i << " out of order";
    last = records[i].time;
  }
  EXPECT_GT(records.size(), 100u);
}

TEST(Generator, RespectsEndTime) {
  const auto spec = catalog_spec("smoke");
  for (const auto& r : records_of(spec)) {
    EXPECT_LT(r.time, spec.end());
    EXPECT_GE(r.time, spec.start);
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto ra = catalog_records("smoke");
  const auto rb = catalog_records("smoke");
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].time, rb[i].time);
    EXPECT_EQ(ra[i].ip, rb[i].ip);
    EXPECT_EQ(ra[i].target, rb[i].target);
    EXPECT_EQ(ra[i].status, rb[i].status);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  auto spec = catalog_spec("smoke");
  const auto ra = records_of(spec);
  spec.seed = 999;
  const auto rb = records_of(spec);
  // Same populations, different randomness: sizes close but streams differ.
  bool any_difference = ra.size() != rb.size();
  for (std::size_t i = 0; !any_difference && i < std::min(ra.size(), rb.size());
       ++i) {
    any_difference = ra[i].target != rb[i].target || ra[i].ip != rb[i].ip;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Scenario, AllActorClassesPresent) {
  std::set<std::uint8_t> classes;
  for (const auto& r : catalog_records("smoke")) classes.insert(r.actor_class);
  for (const auto cls :
       {ActorClass::kHuman, ActorClass::kSearchCrawler, ActorClass::kMonitor,
        ActorClass::kScraperAggressive, ActorClass::kScraperApi}) {
    EXPECT_TRUE(classes.count(static_cast<std::uint8_t>(cls)) != 0)
        << to_string(cls);
  }
}

TEST(Scenario, TruthMatchesActorClass) {
  for (const auto& r : catalog_records("smoke")) {
    const auto cls = static_cast<ActorClass>(r.actor_class);
    EXPECT_EQ(r.truth, divscrape::traffic::truth_of(cls));
    EXPECT_NE(r.truth, Truth::kUnknown);
  }
}

TEST(Scenario, EveryRecordSurvivesClfRoundTrip) {
  // Wire-format property: everything the simulator emits must be valid CLF.
  std::uint64_t count = 0;
  for (const auto& r : catalog_records("smoke")) {
    const auto parsed = parse_clf(divscrape::httplog::format_clf(r));
    ASSERT_TRUE(parsed.ok())
        << divscrape::httplog::format_clf(r) << " -> "
        << to_string(parsed.error);
    EXPECT_EQ(parsed.record->target, r.target);
    ++count;
  }
  EXPECT_GT(count, 0u);
}

TEST(Scenario, HumansFetchAssetsAndCarryReferers) {
  std::uint64_t human_requests = 0, human_assets = 0, human_referers = 0;
  for (const auto& r : catalog_records("smoke")) {
    if (r.actor_class != static_cast<std::uint8_t>(ActorClass::kHuman))
      continue;
    ++human_requests;
    human_assets += divscrape::httplog::is_static_asset(r.path());
    human_referers += r.referer != "-";
  }
  ASSERT_GT(human_requests, 50u);
  EXPECT_GT(static_cast<double>(human_assets) /
                static_cast<double>(human_requests),
            0.15);
  EXPECT_GT(static_cast<double>(human_referers) /
                static_cast<double>(human_requests),
            0.5);
}

TEST(Scenario, AggressiveScrapersAreFastAndAssetFree) {
  std::map<std::uint32_t, std::uint64_t> per_bot;
  std::uint64_t assets = 0, total = 0;
  for (const auto& r : catalog_records("smoke")) {
    if (r.actor_class !=
        static_cast<std::uint8_t>(ActorClass::kScraperAggressive))
      continue;
    ++total;
    ++per_bot[r.actor_id];
    assets += divscrape::httplog::is_static_asset(r.path());
  }
  ASSERT_GT(total, 100u);
  EXPECT_EQ(assets, 0u);
}

TEST(Scenario, ScrapersComeFromCampaignSubnets) {
  std::uint64_t fleet = 0, in_subnet = 0;
  for (const auto& r : catalog_records("smoke")) {
    if (r.actor_class !=
        static_cast<std::uint8_t>(ActorClass::kScraperAggressive))
      continue;
    ++fleet;
    // Campaign space is 45.140.0.0/15-ish (45.140 + campaign).
    in_subnet += (r.ip.value() >> 24) == 45;
  }
  ASSERT_GT(fleet, 0u);
  EXPECT_EQ(fleet, in_subnet);
}

TEST(Scenario, CrawlerDeclaresItselfAndFetchesRobots) {
  bool robots_seen = false;
  std::uint64_t crawler_requests = 0;
  for (const auto& r : catalog_records("smoke")) {
    if (r.actor_class !=
        static_cast<std::uint8_t>(ActorClass::kSearchCrawler))
      continue;
    ++crawler_requests;
    robots_seen = robots_seen || r.path() == "/robots.txt";
    EXPECT_TRUE(
        divscrape::httplog::classify_user_agent(r.user_agent).declared_bot);
  }
  ASSERT_GT(crawler_requests, 0u);
  EXPECT_TRUE(robots_seen);
}

TEST(Scenario, MalformedBotsProduce400s) {
  auto spec = catalog_spec("smoke");
  spec.duration_days = 0.25;
  std::uint64_t malformed_400 = 0;
  for (const auto& r : records_of(spec)) {
    if (r.actor_class ==
            static_cast<std::uint8_t>(ActorClass::kScraperMalformed) &&
        r.status == 400)
      ++malformed_400;
  }
  EXPECT_GT(malformed_400, 0u);
}

TEST(Scenario, ScaleControlsVolume) {
  auto small = catalog_spec("amadeus_like", 0.01);
  small.duration_days = 0.5;
  auto big = catalog_spec("amadeus_like", 0.05);
  big.duration_days = 0.5;
  const auto rs = records_of(small);
  const auto rb = records_of(big);
  EXPECT_GT(rb.size(), rs.size());
}

TEST(Scenario, StatusMixIsDominatedBy200) {
  std::uint64_t total = 0, ok = 0;
  for (const auto& r : catalog_records("smoke")) {
    ++total;
    ok += r.status == 200;
  }
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(total), 0.8);
}

TEST(Scenario, DiurnalModulationVariesHumanRate) {
  auto spec = catalog_spec("amadeus_like", 0.2);
  spec.duration_days = 1.0;
  std::map<int, std::uint64_t> per_hour;
  for (const auto& r : records_of(spec)) {
    if (r.actor_class != static_cast<std::uint8_t>(ActorClass::kHuman))
      continue;
    const auto hour = static_cast<int>(
        (r.time - spec.start) / divscrape::httplog::kMicrosPerHour);
    ++per_hour[hour];
  }
  ASSERT_FALSE(per_hour.empty());
  std::uint64_t min_h = UINT64_MAX, max_h = 0;
  for (const auto& [h, n] : per_hour) {
    min_h = std::min(min_h, n);
    max_h = std::max(max_h, n);
  }
  EXPECT_GT(max_h, min_h * 2) << "diurnal variation missing";
}

}  // namespace
