// Experiment E9 (the paper's Section V): "look more closely into the
// alerts generated by only one of the tools". Every alert carries a reason
// code; this bench attributes the unique-alert masses of Table 2/4 to
// detector mechanisms and actor populations. The reason attribution on
// truth-malicious traffic comes from eval::Scorer (the same engine behind
// BENCH_detection.json); the status and actor-class breakdowns come from
// the AlertJoiner that feeds it.
//
// Usage: bench_unique_alert_causes [scale]   (default 0.2)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "detectors/registry.hpp"
#include "eval/scorer.hpp"
#include "traffic/actor.hpp"

int main(int argc, char** argv) {
  using namespace divscrape;

  const double scale = bench::parse_scale(argc, argv, 0.2);
  std::printf("# E9: root causes of single-tool alerts, scale=%.3f\n\n",
              scale);

  const auto pool = detectors::make_paper_pair();
  std::vector<std::string> names;
  for (const auto& detector : pool) names.emplace_back(detector->name());
  eval::Scorer scorer(names);

  // Unique alerts by (detector, actor class).
  std::map<std::pair<std::size_t, std::uint8_t>, std::uint64_t> by_class;
  const auto out = eval::run_experiment(
      bench::paper_spec(scale), pool,
      [&](const httplog::LogRecord& record,
          divscrape::span<const detectors::Verdict> verdicts) {
        scorer.observe(record, verdicts);
        const bool s = verdicts[0].alert;
        const bool a = verdicts[1].alert;
        if (s != a) {
          const std::size_t who = s ? 0 : 1;
          ++by_class[{who, record.actor_class}];
        }
      });
  const auto& r = out.results;
  const auto score = scorer.finish("amadeus_like", scale);

  for (std::size_t d = 0; d < 2; ++d) {
    std::printf("%s-only alerts: %s total\n", r.names()[d].c_str(),
                core::with_thousands(r.unique_alert_status(d).total())
                    .c_str());
    std::printf("  by detector reason (truth-malicious traffic):\n");
    for (const auto& reason : score.columns[d].unique_reasons) {
      std::printf("    %-20s %10s\n", reason.reason.c_str(),
                  core::with_thousands(reason.count).c_str());
    }
    std::printf("  by (ground-truth) actor population:\n");
    for (const auto& [key, count] : by_class) {
      if (key.first != d) continue;
      std::printf("    %-20s %10s\n",
                  std::string(traffic::to_string(
                                  static_cast<traffic::ActorClass>(
                                      key.second)))
                      .c_str(),
                  core::with_thousands(count).c_str());
    }
    std::printf("  attacking actors this tool alone detected: %llu\n\n",
                static_cast<unsigned long long>(
                    score.columns[d].actors_unique));
  }

  std::printf(
      "interpretation (matches DESIGN.md section 2):\n"
      "  sentinel-only = reputation persistence over Arcane's per-session\n"
      "    warm-up, plus the sub-behavioural slow fleet members swept by\n"
      "    /24 escalation (with a small collateral human FP mass);\n"
      "  arcane-only   = low-and-slow stealth scrapers, clean-IP API\n"
      "    pollers (204s), malformed-request bots (400s) and cache\n"
      "    sweepers (304s) that never trip per-request commercial rules.\n");
  return 0;
}
