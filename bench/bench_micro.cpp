// Component microbenchmarks (google-benchmark; optional build). Measures
// the operational cost of each stage of the two-tool deployment: CLF
// parse/format, per-request detector evaluation, and the end-to-end joined
// pipeline (generation included; bench_workload times generation alone).
#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "detectors/arcane.hpp"
#include "detectors/registry.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "httplog/clf.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace {

using namespace divscrape;

/// The catalog smoke spec cut to `days` of simulated time.
workload::ScenarioSpec smoke_spec(double days) {
  auto spec = *workload::catalog_entry("smoke");
  spec.duration_days = days;
  return spec;
}

// A captive slice of scenario traffic shared by the record-level benches.
const std::vector<httplog::LogRecord>& sample_records() {
  static const auto records = [] {
    workload::WorkloadEngine engine(smoke_spec(0.2));
    std::vector<httplog::LogRecord> out;
    (void)engine.run(
        [&out](httplog::LogRecord&& r) { out.push_back(std::move(r)); });
    return out;
  }();
  return records;
}

void BM_ClfFormat(benchmark::State& state) {
  const auto& records = sample_records();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(httplog::format_clf(records[i]));
    i = (i + 1) % records.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClfFormat);

void BM_ClfFormatStreaming(benchmark::State& state) {
  // The production emit shape: one warm ClfFormatter appending into a
  // reused buffer (time memo hot, no per-record string).
  const auto& records = sample_records();
  httplog::ClfFormatter formatter;
  std::string buf;
  std::size_t i = 0;
  for (auto _ : state) {
    buf.clear();
    formatter.append(records[i], buf);
    benchmark::DoNotOptimize(buf.data());
    i = (i + 1) % records.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClfFormatStreaming);

const std::vector<std::string>& sample_lines() {
  static const auto lines = [] {
    const auto& records = sample_records();
    std::vector<std::string> out;
    out.reserve(records.size());
    for (const auto& r : records) out.push_back(httplog::format_clf(r));
    return out;
  }();
  return lines;
}

void BM_ClfParse(benchmark::State& state) {
  const auto& lines = sample_lines();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(httplog::parse_clf(lines[i]));
    i = (i + 1) % lines.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClfParse);

void BM_ClfParseStreaming(benchmark::State& state) {
  // The production ingest shape: one warm ClfParser decoding into a reused
  // record (timestamp memo + string capacities hot) — what LineDecoder
  // actually runs per line.
  const auto& lines = sample_lines();
  httplog::ClfParser parser;
  httplog::LogRecord rec;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(lines[i], rec));
    benchmark::DoNotOptimize(rec.status);
    i = (i + 1) % lines.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClfParseStreaming);

void BM_ClfParseReference(benchmark::State& state) {
  // The pre-SWAR oracle parser — the "before" row the fast-path rows are
  // compared against (and what the differential fuzz suite checks them
  // against for correctness).
  const auto& lines = sample_lines();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(httplog::parse_clf_reference(lines[i]));
    i = (i + 1) % lines.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClfParseReference);

void BM_SentinelEvaluate(benchmark::State& state) {
  const auto& records = sample_records();
  detectors::SentinelDetector sentinel;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sentinel.evaluate(records[i]));
    if (++i == records.size()) {
      i = 0;
      state.PauseTiming();
      sentinel.reset();  // keep time monotone for the detector
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SentinelEvaluate);

void BM_ArcaneEvaluate(benchmark::State& state) {
  const auto& records = sample_records();
  detectors::ArcaneDetector arcane;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arcane.evaluate(records[i]));
    if (++i == records.size()) {
      i = 0;
      state.PauseTiming();
      arcane.reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArcaneEvaluate);

void BM_EndToEndJoinedPair(benchmark::State& state) {
  const auto spec = smoke_spec(0.05);
  for (auto _ : state) {
    const auto out =
        eval::run_experiment(spec, detectors::make_paper_pair());
    benchmark::DoNotOptimize(out.results.total_requests());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(out.records));
  }
}
BENCHMARK(BM_EndToEndJoinedPair)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
