// Calibration diagnostic: per-actor-class traffic volumes and per-detector
// alert rates on the paper-shaped scenario. This is the tool used to tune
// the population mix and the detector thresholds until the reproduced
// Tables 1-4 match the paper's shape; it stays in the tree so the
// calibration is auditable and re-runnable.
//
// Usage: calibration [scale]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/report.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "traffic/actor.hpp"
#include "workload/catalog.hpp"

using namespace divscrape;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;

  struct ClassStats {
    std::uint64_t requests = 0;
    std::uint64_t sentinel = 0;
    std::uint64_t arcane = 0;
    std::uint64_t both = 0;
    std::uint64_t neither = 0;
  };
  std::map<std::uint8_t, ClassStats> per_class;

  (void)eval::run_experiment(
      *workload::catalog_entry("amadeus_like", scale),
      detectors::make_paper_pair(),
      [&per_class](const httplog::LogRecord& record,
                   divscrape::span<const detectors::Verdict> verdicts) {
        const bool s = verdicts[0].alert;
        const bool a = verdicts[1].alert;
        auto& cs = per_class[record.actor_class];
        ++cs.requests;
        cs.sentinel += s;
        cs.arcane += a;
        cs.both += s && a;
        cs.neither += !s && !a;
      });

  core::TextTable t({"actor class", "requests", "sentinel%", "arcane%",
                     "both%", "neither", "sent-only", "arc-only"});
  std::uint64_t total = 0;
  for (const auto& [cls, cs] : per_class) {
    total += cs.requests;
    const double n = static_cast<double>(cs.requests);
    t.add_row({std::string(traffic::to_string(
                   static_cast<traffic::ActorClass>(cls))),
               core::with_thousands(cs.requests),
               core::as_percent(static_cast<double>(cs.sentinel) / n),
               core::as_percent(static_cast<double>(cs.arcane) / n),
               core::as_percent(static_cast<double>(cs.both) / n),
               core::with_thousands(cs.neither),
               core::with_thousands(cs.sentinel - cs.both),
               core::with_thousands(cs.arcane - cs.both)});
  }
  t.print(std::cout);
  std::printf("\ntotal: %s (paper-scale target at this scale: %s)\n",
              core::with_thousands(total).c_str(),
              core::with_thousands(static_cast<std::uint64_t>(
                  1'469'744 * scale))
                  .c_str());
  return 0;
}
