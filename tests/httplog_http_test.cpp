// HTTP vocabulary tests: methods, reason phrases, paper-style labels.
#include <gtest/gtest.h>

#include "httplog/http.hpp"

namespace {

using divscrape::httplog::HttpMethod;
using divscrape::httplog::parse_method;
using divscrape::httplog::reason_phrase;
using divscrape::httplog::status_label;
using divscrape::httplog::to_string;

class MethodRoundTrip : public ::testing::TestWithParam<HttpMethod> {};

TEST_P(MethodRoundTrip, ParseOfToStringIsIdentity) {
  const HttpMethod m = GetParam();
  EXPECT_EQ(parse_method(to_string(m)), m);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodRoundTrip,
    ::testing::Values(HttpMethod::kGet, HttpMethod::kPost, HttpMethod::kHead,
                      HttpMethod::kPut, HttpMethod::kDelete,
                      HttpMethod::kOptions, HttpMethod::kPatch,
                      HttpMethod::kConnect, HttpMethod::kTrace));

TEST(Method, UnknownTokensMapToOther) {
  EXPECT_EQ(parse_method("FOO"), HttpMethod::kOther);
  EXPECT_EQ(parse_method(""), HttpMethod::kOther);
  EXPECT_EQ(parse_method("get"), HttpMethod::kOther);  // case-sensitive
}

TEST(StatusLabel, MatchesPaperTableStyle) {
  // The paper prints "200 (OK)", "204 (No content)", "400 (Bad request)",
  // "304 (Not modified)", "404 (Not found)" — lower-case phrases.
  EXPECT_EQ(status_label(200), "200 (OK)");
  EXPECT_EQ(status_label(204), "204 (No content)");
  EXPECT_EQ(status_label(302), "302 (Found)");
  EXPECT_EQ(status_label(304), "304 (Not modified)");
  EXPECT_EQ(status_label(400), "400 (Bad request)");
  EXPECT_EQ(status_label(403), "403 (Forbidden)");
  EXPECT_EQ(status_label(404), "404 (Not found)");
  EXPECT_EQ(status_label(500), "500 (Internal Server Error)");
}

TEST(StatusLabel, UnknownCodeIsBareNumber) {
  EXPECT_EQ(status_label(299), "299");
  EXPECT_TRUE(reason_phrase(299).empty());
}

}  // namespace
