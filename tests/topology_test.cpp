// Deployment-topology tests: k-out-of-N parallel ensembles and the serial
// filter->analyzer cascade from the paper's Section V.
#include <gtest/gtest.h>

#include <memory>

#include "core/topology.hpp"
#include "detectors/detector.hpp"

namespace {

using divscrape::core::ParallelDeployment;
using divscrape::core::SerialDeployment;
using divscrape::detectors::Detector;
using divscrape::detectors::Verdict;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;

LogRecord req(Ipv4 ip, double t_s, const char* target = "/offers/1") {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.target = target;
  r.user_agent = "UA";
  return r;
}

// A scripted detector for deterministic composition tests: alerts on the
// requests whose target contains its token.
class TokenDetector final : public Detector {
 public:
  TokenDetector(std::string name, std::string token)
      : name_(std::move(name)), token_(std::move(token)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] Verdict evaluate(const LogRecord& record) override {
    ++seen_;
    const bool hit =
        record.target.find(token_) != std::string::npos;
    return {hit, hit ? 1.0 : 0.0,
            divscrape::detectors::AlertReason::kBehavioral};
  }
  void reset() override { seen_ = 0; }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::string name_;
  std::string token_;
  std::uint64_t seen_ = 0;
};

std::vector<std::unique_ptr<Detector>> two_tokens() {
  std::vector<std::unique_ptr<Detector>> pool;
  pool.push_back(std::make_unique<TokenDetector>("a", "alpha"));
  pool.push_back(std::make_unique<TokenDetector>("b", "beta"));
  return pool;
}

TEST(Parallel, OneOutOfTwoIsUnion) {
  ParallelDeployment ensemble(two_tokens(), 1);
  EXPECT_TRUE(ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 0, "/alpha")).alert);
  EXPECT_TRUE(ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 1, "/beta")).alert);
  EXPECT_TRUE(
      ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 2, "/alpha/beta")).alert);
  EXPECT_FALSE(ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 3, "/gamma")).alert);
}

TEST(Parallel, TwoOutOfTwoIsIntersection) {
  ParallelDeployment ensemble(two_tokens(), 2);
  EXPECT_FALSE(ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 0, "/alpha")).alert);
  EXPECT_FALSE(ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 1, "/beta")).alert);
  EXPECT_TRUE(
      ensemble.evaluate(req(Ipv4(1, 1, 1, 1), 2, "/alpha/beta")).alert);
}

TEST(Parallel, NameEncodesRule) {
  ParallelDeployment ensemble(two_tokens(), 2);
  EXPECT_EQ(ensemble.name(), "2oo2(a,b)");
}

TEST(Parallel, RejectsBadK) {
  EXPECT_THROW(ParallelDeployment(two_tokens(), 0), std::invalid_argument);
  EXPECT_THROW(ParallelDeployment(two_tokens(), 3), std::invalid_argument);
  EXPECT_THROW(ParallelDeployment({}, 1), std::invalid_argument);
}

TEST(Serial, FilterShieldsAnalyzer) {
  auto filter = std::make_unique<TokenDetector>("f", "alpha");
  auto analyzer = std::make_unique<TokenDetector>("a", "beta");
  auto* analyzer_raw = analyzer.get();
  SerialDeployment cascade(std::move(filter), std::move(analyzer));

  // Filter alerts: analyzer never sees the request.
  EXPECT_TRUE(cascade.evaluate(req(Ipv4(1, 1, 1, 1), 0, "/alpha")).alert);
  EXPECT_EQ(analyzer_raw->seen(), 0u);
  // Filter silent: analyzer sees it and may alert.
  EXPECT_TRUE(cascade.evaluate(req(Ipv4(1, 1, 1, 1), 1, "/beta")).alert);
  EXPECT_EQ(analyzer_raw->seen(), 1u);
  EXPECT_FALSE(cascade.evaluate(req(Ipv4(1, 1, 1, 1), 2, "/gamma")).alert);
  EXPECT_EQ(cascade.analyzer_load(), 2u);
  EXPECT_EQ(cascade.total_load(), 3u);
}

TEST(Serial, NameEncodesOrder) {
  SerialDeployment cascade(std::make_unique<TokenDetector>("f", "x"),
                           std::make_unique<TokenDetector>("a", "y"));
  EXPECT_EQ(cascade.name(), "serial(f->a)");
}

TEST(Serial, OrderMattersForLoad) {
  // filter=alpha then analyzer=beta vs the reverse: analyzer load differs
  // on an alpha-heavy stream — the paper's serial trade-off.
  auto make_stream = [] {
    std::vector<LogRecord> stream;
    for (int i = 0; i < 10; ++i)
      stream.push_back(req(Ipv4(1, 1, 1, 1), i, "/alpha"));
    stream.push_back(req(Ipv4(1, 1, 1, 1), 11, "/beta"));
    return stream;
  };
  SerialDeployment ab(std::make_unique<TokenDetector>("a", "alpha"),
                      std::make_unique<TokenDetector>("b", "beta"));
  SerialDeployment ba(std::make_unique<TokenDetector>("b", "beta"),
                      std::make_unique<TokenDetector>("a", "alpha"));
  for (const auto& r : make_stream()) {
    (void)ab.evaluate(r);
    (void)ba.evaluate(r);
  }
  EXPECT_EQ(ab.analyzer_load(), 1u);   // alpha-filter drops 10 of 11
  EXPECT_EQ(ba.analyzer_load(), 10u);  // beta-filter drops only 1
}

TEST(Serial, ResetPropagates) {
  auto filter = std::make_unique<TokenDetector>("f", "alpha");
  auto analyzer = std::make_unique<TokenDetector>("a", "beta");
  auto* filter_raw = filter.get();
  auto* analyzer_raw = analyzer.get();
  SerialDeployment cascade(std::move(filter), std::move(analyzer));
  for (int i = 0; i < 5; ++i)
    (void)cascade.evaluate(req(Ipv4(1, 1, 1, 1), i * 0.1, "/gamma"));
  ASSERT_EQ(cascade.total_load(), 5u);
  ASSERT_EQ(analyzer_raw->seen(), 5u);
  cascade.reset();
  EXPECT_EQ(cascade.total_load(), 0u);
  EXPECT_EQ(cascade.analyzer_load(), 0u);
  EXPECT_EQ(filter_raw->seen(), 0u);    // reset reached the filter
  EXPECT_EQ(analyzer_raw->seen(), 0u);  // and the analyzer
  EXPECT_FALSE(cascade.evaluate(req(Ipv4(1, 1, 1, 1), 100.0)).alert);
}

TEST(Serial, UnionEqualsParallelOneOfTwoForStatelessStages) {
  // For stateless detectors the cascade's alert set equals 1oo2 — the
  // topology difference is purely analyzer load (and state evolution for
  // stateful tools, covered by the integration tests).
  SerialDeployment cascade(std::make_unique<TokenDetector>("a", "alpha"),
                           std::make_unique<TokenDetector>("b", "beta"));
  ParallelDeployment parallel(two_tokens(), 1);
  for (int i = 0; i < 20; ++i) {
    const char* target = i % 3 == 0 ? "/alpha" : (i % 3 == 1 ? "/beta" : "/c");
    const auto r = req(Ipv4(1, 1, 1, 1), i, target);
    EXPECT_EQ(cascade.evaluate(r).alert, parallel.evaluate(r).alert) << i;
  }
}

}  // namespace
