// Log forensics: the deployment mode the paper's tools ran in — analyzing
// Apache access-log *files*.
//
// With no argument, this example first writes a simulated day of traffic
// to a CLF file (plus a few corrupt lines, as rotation glitches produce),
// then replays that file through the two detectors and prints the
// analysis. Point it at your own combined-format access log to analyze
// real traffic:
//
//   log_forensics [path/to/access.log]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "core/contingency.hpp"
#include "core/report.hpp"
#include "detectors/registry.hpp"
#include "httplog/io.hpp"
#include "pipeline/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

using namespace divscrape;

namespace {

std::string write_sample_log() {
  const std::string path = "/tmp/divscrape_sample_access.log";
  auto spec = *workload::catalog_entry("amadeus_like", 0.05);
  spec.duration_days = 1.0;
  workload::WorkloadEngine engine(std::move(spec));
  std::ofstream out(path);
  httplog::LogWriter writer(out);
  std::uint64_t n = 0;
  (void)engine.run([&](httplog::LogRecord&& record) {
    writer.write(record);
    // Simulate occasional rotation corruption.
    if (++n % 5000 == 0) out << "##corrupt rotation fragment##\n";
  });
  std::printf("wrote %s (%llu records + corrupt fragments)\n", path.c_str(),
              static_cast<unsigned long long>(n));
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : write_sample_log();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  const auto stats = engine.replay(in);
  const auto& r = engine.results();

  std::printf("\nreplayed %s in %.2fs: %s parsed, %s skipped\n",
              path.c_str(), stats.wall_seconds,
              core::with_thousands(stats.parsed).c_str(),
              core::with_thousands(stats.skipped).c_str());

  core::TextTable table({"detector", "alerts", "alert rate"});
  for (std::size_t d = 0; d < r.detector_count(); ++d) {
    table.add_row({std::string(r.names()[d]),
                   core::with_thousands(r.alerts(d)),
                   core::as_percent(static_cast<double>(r.alerts(d)) /
                                    static_cast<double>(
                                        std::max<std::uint64_t>(
                                            1, r.total_requests())))});
  }
  table.print(std::cout);

  const auto& pair = r.pair(0, 1);
  std::printf("\ndiversity: both=%s neither=%s %s-only=%s %s-only=%s\n",
              core::with_thousands(pair.both()).c_str(),
              core::with_thousands(pair.neither()).c_str(),
              r.names()[0].c_str(),
              core::with_thousands(pair.first_only()).c_str(),
              r.names()[1].c_str(),
              core::with_thousands(pair.second_only()).c_str());

  const auto metrics = core::DiversityMetrics::from(pair.counts());
  std::printf(
      "Q=%.4f phi=%.4f disagreement=%.4f kappa=%.4f mcnemar_p=%.3g\n",
      metrics.q_statistic, metrics.phi, metrics.disagreement, metrics.kappa,
      metrics.mcnemar.p_value);

  std::printf(
      "\nNote: files parsed from disk carry no ground truth, so this mode\n"
      "reports alert diversity only — exactly the position the paper's\n"
      "authors were in before labelling (their Section V).\n");
  return 0;
}
