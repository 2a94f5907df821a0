// JSON writer and result-export tests.
#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "core/export.hpp"
#include "core/json.hpp"

namespace {

using divscrape::core::JointResults;
using divscrape::core::JsonWriter;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Truth;
using Verdict = divscrape::detectors::Verdict;

/// `text` as the writer escapes it inside a string value (quotes removed).
std::string json_escape(std::string_view text) {
  std::string out;
  JsonWriter(out).value(text);
  return out.substr(1, out.size() - 2);
}

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("run\x1f" "run\"end"), "run\\u001frun\\\"end");
}

TEST(JsonWriter, ObjectAndArrayComposition) {
  std::string out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name").value("x");
  json.key("count").value(std::uint64_t{3});
  json.key("items").begin_array();
  json.value(1).value(2).value(3);
  json.end_array();
  json.key("nested").begin_object();
  json.key("flag").value(true);
  json.key("empty").value("");
  json.end_object();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out,
            R"({"name":"x","count":3,"items":[1,2,3],)"
            R"("nested":{"flag":true,"empty":""}})");
}

TEST(JsonWriter, AppendsToTheCallersStringAndEncodesBase64InPlace) {
  std::string out = "prefix ";
  JsonWriter json(out);
  json.begin_array();
  json.value_base64(std::string("\x00\xff\x10x", 4));
  json.value_base64("");
  json.end_array();
  EXPECT_EQ(out, R"(prefix ["AP8QeA==",""])");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::string out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::nan(""));
  json.value(1.5);
  json.end_array();
  EXPECT_EQ(out, "[null,1.5]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    std::string out;
    JsonWriter json(out);
    json.begin_object();
    EXPECT_THROW(json.value(1), std::logic_error);  // value without key
  }
  {
    std::string out;
    JsonWriter json(out);
    json.begin_array();
    EXPECT_THROW(json.key("k"), std::logic_error);  // key inside array
  }
  {
    std::string out;
    JsonWriter json(out);
    json.begin_object();
    EXPECT_THROW(json.end_array(), std::logic_error);  // mismatched close
  }
  {
    std::string out;
    JsonWriter json(out);
    json.value(1);
    EXPECT_THROW(json.value(2), std::logic_error);  // two top-level values
  }
}

JointResults sample_results() {
  JointResults results({"alpha", "beta"});
  const std::array<std::array<bool, 2>, 4> rows = {{
      {true, true},
      {true, false},
      {false, false},
      {false, true},
  }};
  const std::array<Truth, 4> truths = {Truth::kMalicious, Truth::kMalicious,
                                       Truth::kBenign, Truth::kBenign};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LogRecord r;
    r.ip = Ipv4(1, 1, 1, static_cast<std::uint8_t>(i));
    r.status = i % 2 == 0 ? 200 : 302;
    r.truth = truths[i];
    std::vector<Verdict> verdicts = {
        {rows[i][0], 1.0, divscrape::detectors::AlertReason::kRateLimit},
        {rows[i][1], 0.8, divscrape::detectors::AlertReason::kBehavioral}};
    results.observe(r, verdicts);
  }
  return results;
}

TEST(ExportJson, ContainsAllSections) {
  const auto results = sample_results();
  const auto json = divscrape::core::to_json(results);
  EXPECT_NE(json.find("\"schema\":\"divscrape.joint_results.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"total_requests\":4"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"adjudication\""), std::string::npos);
  EXPECT_NE(json.find("\"q_statistic\""), std::string::npos);
  // Balanced braces (cheap well-formedness proxy; writer enforces rest).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportCsv, TotalsRowPerDetector) {
  const auto results = sample_results();
  std::ostringstream os;
  divscrape::core::export_totals_csv(results, os);
  const auto csv = os.str();
  EXPECT_NE(csv.find("detector,alerts,total"), std::string::npos);
  EXPECT_NE(csv.find("alpha,2,4"), std::string::npos);
  EXPECT_NE(csv.find("beta,2,4"), std::string::npos);
}

TEST(ExportCsv, PairsRow) {
  const auto results = sample_results();
  std::ostringstream os;
  divscrape::core::export_pairs_csv(results, os);
  const auto csv = os.str();
  // both=1, neither=1, first_only=1, second_only=1
  EXPECT_NE(csv.find("alpha,beta,1,1,1,1"), std::string::npos);
}

TEST(ExportCsv, StatusLongForm) {
  const auto results = sample_results();
  std::ostringstream os;
  divscrape::core::export_status_csv(results, os);
  const auto csv = os.str();
  EXPECT_NE(csv.find("detector,status,alerted,unique"), std::string::npos);
  EXPECT_NE(csv.find("alpha,200,"), std::string::npos);
  EXPECT_NE(csv.find("alpha,302,"), std::string::npos);
}

}  // namespace
