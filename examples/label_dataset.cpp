// The paper's next step, executed: label an unlabelled dataset and audit
// the labels.
//
// The paper closes with "The Amadeus team is currently working on
// labelling the dataset". This example runs that workflow on simulated
// traffic where hidden ground truth exists, so the labelling itself can
// be graded: for each decision-margin setting it reports coverage (how
// much of the stream gets a label) and purity (how often the label agrees
// with the hidden truth) — the trade-off an analyst tunes before trusting
// labels enough to compute sensitivity/specificity tables.
#include <cstdio>
#include <vector>

#include "core/labeling.hpp"
#include "core/report.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

using namespace divscrape;

int main() {
  // Generate a labelled stream, then scrub the labels (the analyst's view).
  workload::WorkloadEngine engine(
      *workload::catalog_entry("amadeus_like", 0.05));
  std::vector<httplog::LogRecord> records;
  std::vector<httplog::Truth> hidden_truth;
  (void)engine.run([&](httplog::LogRecord&& record) {
    hidden_truth.push_back(record.truth);
    record.truth = httplog::Truth::kUnknown;
    records.push_back(std::move(record));
  });
  std::printf("unlabelled stream: %s records\n\n",
              core::with_thousands(records.size()).c_str());

  std::printf("  %-8s %10s %12s %12s %14s %14s\n", "margin", "coverage",
              "purity", "labelled-mal", "false-mal", "false-benign");
  for (const int margin : {1, 2, 3, 4}) {
    core::LabelerConfig lc;
    lc.decision_margin = margin;
    core::HeuristicLabeler labeler(lc);
    auto working = records;  // fresh unlabelled copy per margin
    const auto result = labeler.label(working);
    const auto audit = core::HeuristicLabeler::audit(hidden_truth, working);
    std::printf("  %-8d %9.1f%% %11.2f%% %12s %14llu %14llu\n", margin,
                result.coverage() * 100.0, audit.agreement() * 100.0,
                core::with_thousands(result.labeled_malicious).c_str(),
                static_cast<unsigned long long>(audit.false_malicious),
                static_cast<unsigned long long>(audit.false_benign));
  }

  std::printf(
      "\nreading the sweep: margin 1 labels nearly everything but admits\n"
      "mislabels; the default margin 2 keeps purity high while covering\n"
      "most of the stream; margins 3-4 approach manual-review purity at\n"
      "the cost of leaving ambiguous sessions unknown. With labels in\n"
      "hand, `divscrape_cli tables` prints the paper's Section V analysis:\n"
      "sensitivity and specificity of each tool, 1oo2 and 2oo2.\n");
  return 0;
}
