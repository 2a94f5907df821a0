// The detection-quality yardstick: every red-tier catalog scenario run
// through the batched workload seam and scored by eval::Scorer — per
// detector and for the 1oo2 ensemble — emitting the machine-readable
// BENCH_detection document (schema divscrape.bench_detection.v1). The
// counterpart to the perfbench/ benchmark: future PRs are gated on "didn't
// get worse at detecting" as well as "didn't get slower".
//
// The scenario set walks the E13 ladder (evasion_ladder_e0..e4) plus the
// three named red campaigns; the expected shape is the paper's closing
// argument — each capability the adversary buys hurts one mechanism
// family more than the other, so the ensemble degrades more gracefully
// than either tool alone.
//
// Usage: bench_detection [scale] [--json <path>] [--smoke]
//
// The scale must parse in full as a number in (0, 1] (default 1). --smoke
// runs the three-tier CI subset at its own fixed scale, so it takes no
// scale, and exits nonzero if any gated metric drops below the committed
// floor (the non-evasive tier's ensemble recall must not regress). Any
// other argument is a usage error (exit 1): nothing is silently ignored,
// so the JSON document always records what actually ran.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "eval/run.hpp"
#include "util/rss.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace divscrape;

// CI smoke floors, committed alongside BENCH_detection.json. The gated
// metric is the unevaded tier's ensemble recall: evasive tiers may move
// as detectors evolve, but a perf PR that loses ground on the easy tier
// has broken detection, not tuned it. Floors sit a safety margin under
// the measured values at the smoke settings (scale 0.25, seed fixed by
// the spec) so benign jitter cannot trip them; any real regression can.
constexpr double kSmokeScale = 0.25;
constexpr double kFloorEnsembleRecallE0 = 0.99;   // measured 0.9998
constexpr double kFloorEnsembleAucE0 = 0.995;     // measured 0.9999

/// Parses the whole of `text` as a number in (0, 1]; "nan", "inf", "1.5x"
/// and "" all fail.
bool parse_scale(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  // Every comparison with NaN is false, so the range test rejects it.
  return end != text && *end == '\0' && errno == 0 && out > 0.0 &&
         out <= 1.0;
}

void print_score(const eval::ScenarioScore& score) {
  std::printf("  %s (scale %.3f): %llu records, %llu attacking actors\n",
              score.scenario.c_str(), score.scale,
              static_cast<unsigned long long>(score.records),
              static_cast<unsigned long long>(score.actors_attacking));
  std::printf("    %-14s %9s %9s %9s %9s %12s %10s\n", "column", "prec",
              "recall", "f1", "auc", "actors", "ttd_p50");
  for (const auto& column : score.columns) {
    std::printf("    %-14s %8.1f%% %8.1f%% %8.1f%% %9.4f %6llu/%-5llu %9.0fs\n",
                column.name.c_str(), 100.0 * column.precision(),
                100.0 * column.recall(), 100.0 * column.f1(), column.auc,
                static_cast<unsigned long long>(column.actors_detected),
                static_cast<unsigned long long>(score.actors_attacking),
                column.ttd_p50_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [scale in (0,1] | --smoke] [--json <path>]\n",
                 argv[0]);
    return 1;
  };
  bool smoke = false;
  bool have_scale = false;
  double scale = 1.0;
  std::string json_path;  // empty = no JSON output
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (argv[i][0] != '-' && !have_scale &&
               parse_scale(argv[i], scale)) {
      have_scale = true;
    } else {
      return usage();
    }
  }
  if (smoke && have_scale) return usage();
  if (smoke) scale = kSmokeScale;

  const std::vector<std::string> scenarios =
      smoke ? std::vector<std::string>{"evasion_ladder_e0",
                                       "evasion_ladder_e2",
                                       "evasion_ladder_e4"}
            : std::vector<std::string>{
                  "evasion_ladder_e0", "evasion_ladder_e1",
                  "evasion_ladder_e2", "evasion_ladder_e3",
                  "evasion_ladder_e4", "rotating_fleet", "human_mimic",
                  "distributed_low_and_slow"};

  std::printf("# E13: red-vs-blue detection quality, scale=%.3f%s\n\n", scale,
              smoke ? " (smoke)" : "");

  eval::DetectionDocument document;
  for (const auto& name : scenarios) {
    const auto spec = workload::catalog_entry(name, scale);
    if (!spec) {
      std::fprintf(stderr, "unknown catalog entry %s\n", name.c_str());
      return 1;
    }
    document.scenarios.push_back(eval::score_scenario(*spec));
    print_score(document.scenarios.back());
    std::printf("\n");
  }

  std::printf("  peak RSS: %llu kB\n",
              static_cast<unsigned long long>(util::peak_rss_kb()));

  if (!json_path.empty()) {
    if (!document.save(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (smoke) {
    const auto* baseline = document.scenario("evasion_ladder_e0");
    const auto* ensemble =
        baseline ? baseline->column("ensemble_1oo2") : nullptr;
    if (!ensemble) {
      std::fprintf(stderr, "smoke gate: missing evasion_ladder_e0 ensemble\n");
      return 1;
    }
    bool ok = true;
    if (ensemble->recall() < kFloorEnsembleRecallE0) {
      std::fprintf(stderr,
                   "smoke gate FAILED: e0 ensemble recall %.4f < floor %.4f\n",
                   ensemble->recall(), kFloorEnsembleRecallE0);
      ok = false;
    }
    if (ensemble->auc < kFloorEnsembleAucE0) {
      std::fprintf(stderr,
                   "smoke gate FAILED: e0 ensemble AUC %.4f < floor %.4f\n",
                   ensemble->auc, kFloorEnsembleAucE0);
      ok = false;
    }
    if (!ok) return 1;
    std::printf(
        "  smoke gate OK: e0 ensemble recall %.4f >= %.4f, AUC %.4f >= "
        "%.4f\n",
        ensemble->recall(), kFloorEnsembleRecallE0, ensemble->auc,
        kFloorEnsembleAucE0);
  }
  return 0;
}
