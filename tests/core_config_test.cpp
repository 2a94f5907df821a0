// Key-value configuration tests.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/config.hpp"

namespace {

using divscrape::core::apply_arcane_config;
using divscrape::core::apply_sentinel_config;
using divscrape::core::KeyValueConfig;

TEST(Config, ParsesCommentsAndWhitespace) {
  std::istringstream in(
      "# header comment\n"
      "scenario.scale = 0.5   # trailing comment\n"
      "\n"
      "  scenario.seed=42\n"
      "sentinel.enable_reputation = false\n");
  KeyValueConfig config;
  EXPECT_TRUE(config.parse(in));
  EXPECT_EQ(config.size(), 3u);
  EXPECT_DOUBLE_EQ(config.get_double("scenario.scale", 1.0), 0.5);
  EXPECT_EQ(config.get_int("scenario.seed", 0), 42);
  EXPECT_FALSE(config.get_bool("sentinel.enable_reputation", true));
}

TEST(Config, MalformedLinesCollectErrors) {
  std::istringstream in(
      "valid.key = 1\n"
      "no equals sign here\n"
      " = empty key\n");
  KeyValueConfig config;
  EXPECT_FALSE(config.parse(in));
  EXPECT_EQ(config.errors().size(), 2u);
  EXPECT_EQ(config.get_int("valid.key", 0), 1);  // good lines survive
}

TEST(Config, TypedAccessorsFallBack) {
  KeyValueConfig config;
  config.set("a", "not-a-number");
  EXPECT_DOUBLE_EQ(config.get_double("a", 7.5), 7.5);
  EXPECT_EQ(config.get_int("a", 9), 9);
  EXPECT_TRUE(config.get_bool("a", true));
  EXPECT_EQ(config.get_int("missing", -1), -1);
}

TEST(Config, BoolSpellings) {
  KeyValueConfig config;
  for (const char* spelling : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
    config.set("k", spelling);
    EXPECT_TRUE(config.get_bool("k", false)) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off", "FALSE"}) {
    config.set("k", spelling);
    EXPECT_FALSE(config.get_bool("k", true)) << spelling;
  }
}

TEST(Config, UnconsumedKeysReported) {
  KeyValueConfig config;
  config.set("used", "1");
  config.set("typo.burst_limt", "10");
  (void)config.get_int("used", 0);
  const auto leftover = config.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo.burst_limt");
}

TEST(Config, AppliesDetectorKeys) {
  KeyValueConfig config;
  config.set("sentinel.burst_limit", "99");
  config.set("sentinel.enable_subnet_escalation", "off");
  config.set("arcane.min_requests", "20");
  config.set("arcane.alert_threshold", "0.8");
  divscrape::detectors::SentinelConfig sentinel;
  divscrape::detectors::ArcaneConfig arcane;
  apply_sentinel_config(config, sentinel);
  apply_arcane_config(config, arcane);
  EXPECT_EQ(sentinel.burst_limit, 99);
  EXPECT_FALSE(sentinel.enable_subnet_escalation);
  EXPECT_EQ(arcane.min_requests, 20);
  EXPECT_DOUBLE_EQ(arcane.alert_threshold, 0.8);
}

TEST(Config, DefaultsSurviveWhenKeysAbsent) {
  KeyValueConfig config;
  divscrape::detectors::SentinelConfig sentinel;
  const auto original = sentinel;
  apply_sentinel_config(config, sentinel);
  EXPECT_EQ(sentinel.burst_limit, original.burst_limit);
  EXPECT_EQ(sentinel.enable_reputation, original.enable_reputation);
}

// A value that does not parse in full as its key's type is an error that
// names the key and the value, not a silent fallback: a mistyped ablation
// must not run the baseline.
TEST(Config, MisspelledBoolIsAnError) {
  KeyValueConfig config;
  config.set("sentinel.enable_subnet_escalation", "flase");
  divscrape::detectors::SentinelConfig sentinel;
  const bool original = sentinel.enable_subnet_escalation;
  apply_sentinel_config(config, sentinel);
  EXPECT_EQ(sentinel.enable_subnet_escalation, original);
  ASSERT_EQ(config.errors().size(), 1u);
  EXPECT_NE(config.errors()[0].find("sentinel.enable_subnet_escalation"),
            std::string::npos);
  EXPECT_NE(config.errors()[0].find("flase"), std::string::npos);
}

TEST(Config, NumberWithTrailingLettersIsAnError) {
  KeyValueConfig config;
  config.set("arcane.window_s", "6OO");  // letter O, not zero
  divscrape::detectors::ArcaneConfig arcane;
  const double original = arcane.window_s;
  apply_arcane_config(config, arcane);
  EXPECT_DOUBLE_EQ(arcane.window_s, original);  // not std::stod's 6
  ASSERT_EQ(config.errors().size(), 1u);
  EXPECT_NE(config.errors()[0].find("arcane.window_s"), std::string::npos);
  EXPECT_NE(config.errors()[0].find("6OO"), std::string::npos);
}

TEST(Config, FractionGivenToIntKeyIsAnError) {
  KeyValueConfig config;
  config.set("arcane.min_requests", "1.5");
  divscrape::detectors::ArcaneConfig arcane;
  const int original = arcane.min_requests;
  apply_arcane_config(config, arcane);
  EXPECT_EQ(arcane.min_requests, original);
  ASSERT_EQ(config.errors().size(), 1u);
  EXPECT_NE(config.errors()[0].find("arcane.min_requests"), std::string::npos);
  EXPECT_NE(config.errors()[0].find("1.5"), std::string::npos);
}

TEST(Config, DoubleMustBeFinite) {
  KeyValueConfig config;
  for (const char* text : {"nan", "inf", "-inf", "1e999", "+2"}) {
    config.set("k", text);
    EXPECT_DOUBLE_EQ(config.get_double("k", 3.0), 3.0) << text;
  }
  EXPECT_EQ(config.errors().size(), 5u);
  config.set("k", "-0.25e1");
  EXPECT_DOUBLE_EQ(config.get_double("k", 3.0), -2.5);
  EXPECT_EQ(config.errors().size(), 5u);
}

}  // namespace
