// Deployment-topology tests: the serial filter->analyzer cascade from the
// paper's Section V, against the joiner's k-of-n adjudication of the
// parallel deployment, and as `divscrape_cli tables` runs it: both serial
// orders as one two-member pool through eval::run_experiment.
#include <gtest/gtest.h>

#include <memory>

#include "core/joiner.hpp"
#include "core/topology.hpp"
#include "detectors/arcane.hpp"
#include "detectors/detector.hpp"
#include "detectors/registry.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "workload/catalog.hpp"

namespace {

using divscrape::core::AlertJoiner;
using divscrape::core::ConfusionMatrix;
using divscrape::core::SerialDeployment;
using divscrape::detectors::ArcaneDetector;
using divscrape::detectors::Detector;
using divscrape::detectors::SentinelDetector;
using divscrape::detectors::Verdict;
using divscrape::eval::run_experiment;
using divscrape::httplog::Ipv4;
using divscrape::httplog::LogRecord;
using divscrape::httplog::Timestamp;
using divscrape::httplog::Truth;
using divscrape::workload::catalog_entry;

LogRecord req(Ipv4 ip, double t_s, const char* target = "/offers/1") {
  LogRecord r;
  r.ip = ip;
  r.time = Timestamp(static_cast<std::int64_t>(t_s * 1e6));
  r.target = target;
  r.user_agent = "UA";
  return r;
}

void expect_same(const ConfusionMatrix& a, const ConfusionMatrix& b) {
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.tn, b.tn);
  EXPECT_EQ(a.fn, b.fn);
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
  // stateful tools, covered by SerialPool below).
  std::vector<std::unique_ptr<Detector>> cascade_pool;
  cascade_pool.push_back(std::make_unique<SerialDeployment>(
      std::make_unique<TokenDetector>("a", "alpha"),
      std::make_unique<TokenDetector>("b", "beta")));
  const auto parallel_pool = two_tokens();
  AlertJoiner serial(cascade_pool);
  AlertJoiner parallel(parallel_pool);
  for (int i = 0; i < 20; ++i) {
    const char* target = i % 3 == 0 ? "/alpha" : (i % 3 == 1 ? "/beta" : "/c");
    auto r = req(Ipv4(1, 1, 1, 1), i, target);
    r.truth = i % 2 == 0 ? Truth::kMalicious : Truth::kBenign;
    (void)serial.process(r);
    (void)parallel.process(r);
  }
  const auto& one_of_two = parallel.results().k_of_n_confusion(1);
  EXPECT_EQ(one_of_two.total(), 20u);
  EXPECT_GT(one_of_two.tp, 0u);
  EXPECT_GT(one_of_two.fp, 0u);
  expect_same(serial.results().confusion(0), one_of_two);
}

// Both serial orders of the paper pair as one two-member pool, the shape
// `divscrape_cli tables` runs for its deployment-topology block.
std::vector<std::unique_ptr<Detector>> both_orders() {
  std::vector<std::unique_ptr<Detector>> pool;
  pool.push_back(
      std::make_unique<SerialDeployment>(std::make_unique<SentinelDetector>(),
                                         std::make_unique<ArcaneDetector>()));
  pool.push_back(
      std::make_unique<SerialDeployment>(std::make_unique<ArcaneDetector>(),
                                         std::make_unique<SentinelDetector>()));
  return pool;
}

const SerialDeployment& member(
    const std::vector<std::unique_ptr<Detector>>& pool, std::size_t i) {
  return dynamic_cast<const SerialDeployment&>(*pool[i]);
}

TEST(SerialPool, AnalyzerLoadIsWhatTheFilterLetThrough) {
  // The filter sees the whole stream, so its verdicts are the standalone
  // tool's: each cascade's second stage gets exactly the records that
  // tool did not alert on.
  const auto spec = *catalog_entry("smoke");
  const auto standalone =
      run_experiment(spec, divscrape::detectors::make_paper_pair());
  const auto pool = both_orders();
  const auto serial = run_experiment(spec, pool);
  ASSERT_EQ(serial.records, standalone.records);
  ASSERT_GT(standalone.results.alerts(0), 0u);
  ASSERT_GT(standalone.results.alerts(1), 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(member(pool, i).total_load(), serial.records) << i;
    EXPECT_EQ(member(pool, i).analyzer_load(),
              serial.records - standalone.results.alerts(i))
        << i;
  }
}

TEST(SerialPool, CascadesShareNoState) {
  // Each member of the two-member run must score exactly as it does alone:
  // a detector instance shared between the cascades would see records twice
  // and drift.
  const auto spec = *catalog_entry("smoke");
  const auto pool = both_orders();
  const auto together = run_experiment(spec, pool);
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<std::unique_ptr<Detector>> alone_pool;
    alone_pool.push_back(std::move(both_orders()[i]));
    const auto alone = run_experiment(spec, alone_pool);
    expect_same(together.results.confusion(i), alone.results.confusion(0));
    EXPECT_EQ(member(alone_pool, 0).analyzer_load(),
              member(pool, i).analyzer_load())
        << i;
  }
}

}  // namespace
