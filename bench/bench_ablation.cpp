// Ablation bench for the design choices DESIGN.md section 5 calls out:
// what happens to the Table 2 contingency when Sentinel loses reputation
// persistence, subnet escalation, or fingerprinting, and when Arcane's
// behavioural floor / window change. Shows which mechanism produces which
// mass in the paper's diversity table.
//
// Usage: bench_ablation [scale]   (default 0.15)
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "detectors/arcane.hpp"
#include "detectors/detector.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "eval/scorer.hpp"

namespace {

using namespace divscrape;

struct Cells {
  std::uint64_t both = 0, neither = 0, s_only = 0, a_only = 0;
  double ensemble_recall = 0.0;  ///< 1oo2 recall from eval::Scorer
};

Cells run_pair(const workload::ScenarioSpec& spec,
               detectors::SentinelConfig sc, detectors::ArcaneConfig ac) {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>(sc));
  pool.push_back(std::make_unique<detectors::ArcaneDetector>(ac));
  eval::Scorer scorer({"sentinel", "arcane"});
  const auto out = eval::run_experiment(
      spec, pool,
      [&scorer](const httplog::LogRecord& record,
                divscrape::span<const detectors::Verdict> verdicts) {
        scorer.observe(record, verdicts);
      });
  const auto& pair = out.results.pair(0, 1);
  Cells cells;
  cells.both = pair.both();
  cells.neither = pair.neither();
  cells.s_only = pair.first_only();
  cells.a_only = pair.second_only();
  cells.ensemble_recall =
      scorer.finish("amadeus_like", spec.scale).columns.back().recall();
  return cells;
}

void print_row(const char* name, const Cells& c) {
  std::printf("  %-34s %12s %12s %12s %12s %10.1f%%\n", name,
              core::with_thousands(c.both).c_str(),
              core::with_thousands(c.neither).c_str(),
              core::with_thousands(c.s_only).c_str(),
              core::with_thousands(c.a_only).c_str(),
              100.0 * c.ensemble_recall);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv, 0.15);
  const auto scenario = bench::paper_spec(scale);
  std::printf("# ablation of detector mechanisms, scale=%.3f\n\n", scale);
  std::printf("  %-34s %12s %12s %12s %12s %11s\n", "configuration", "both",
              "neither", "sentinel-only", "arcane-only", "1oo2-recall");

  detectors::SentinelConfig base_s;
  detectors::ArcaneConfig base_a;
  print_row("baseline (calibrated)", run_pair(scenario, base_s, base_a));

  {
    auto s = base_s;
    s.enable_reputation = false;
    print_row("sentinel: no IP reputation", run_pair(scenario, s, base_a));
  }
  {
    auto s = base_s;
    s.enable_subnet_escalation = false;
    print_row("sentinel: no /24 escalation", run_pair(scenario, s, base_a));
  }
  {
    auto s = base_s;
    s.enable_fingerprinting = false;
    print_row("sentinel: no fingerprinting", run_pair(scenario, s, base_a));
  }
  {
    auto a = base_a;
    a.min_requests = 25;
    print_row("arcane: floor 25 requests", run_pair(scenario, base_s, a));
  }
  {
    auto a = base_a;
    a.window_s = 30.0;
    print_row("arcane: 30s window", run_pair(scenario, base_s, a));
  }
  {
    auto a = base_a;
    a.window_s = 600.0;
    print_row("arcane: 600s window", run_pair(scenario, base_s, a));
  }

  std::printf(
      "\nreading the ablation:\n"
      "  - disabling /24 escalation moves the slow-fleet mass from\n"
      "    sentinel-only into neither (they evade both);\n"
      "  - raising arcane's floor grows sentinel-only (longer warm-ups);\n"
      "  - widening arcane's window lets it hold low-and-slow context\n"
      "    longer, growing arcane-only at the cost of slower reaction.\n");
  return 0;
}
