// Quickstart: generate a paper-shaped traffic sample, run the two
// reproduced detectors over it, and print the four tables of the paper.
//
// Usage: quickstart [scale]
//   scale in (0, 1], parsed in full; default 0.1 (~150k requests, a few
//   seconds). Anything else exits 1.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/paper_reference.hpp"
#include "core/report.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "httplog/http.hpp"
#include "workload/catalog.hpp"

using namespace divscrape;

int main(int argc, char** argv) {
  // The scale must parse in full: "0.02x", "nan" and "" are rejected.
  double scale = 0.1;
  if (argc > 1) {
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, scale);
    if (ec != std::errc() || ptr != end) scale = 0.0;
  }
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::fprintf(stderr, "scale must be in (0, 1]\n");
    return 1;
  }

  std::printf("divscrape quickstart: %.0f%% of the paper-scale scenario\n",
              scale * 100.0);
  const auto out =
      eval::run_experiment(*workload::catalog_entry("amadeus_like", scale),
                           detectors::make_paper_pair());
  const auto& r = out.results;

  std::printf("processed %s requests in %.2fs (%.0f req/s)\n\n",
              core::with_thousands(r.total_requests()).c_str(),
              out.wall_seconds, out.throughput_rps());

  // Pool order: 0 = sentinel (Distil role), 1 = arcane.
  core::TextTable t1({"Table 1", "count", "% of total"});
  const auto total = r.total_requests();
  const auto pct = [total](std::uint64_t v) {
    return core::as_percent(total == 0
                                ? 0.0
                                : static_cast<double>(v) /
                                      static_cast<double>(total));
  };
  t1.add_row({"Total HTTP requests", core::with_thousands(total), "100%"});
  t1.add_row({"alerted by sentinel (Distil role)",
              core::with_thousands(r.alerts(0)), pct(r.alerts(0))});
  t1.add_row({"alerted by arcane", core::with_thousands(r.alerts(1)),
              pct(r.alerts(1))});
  t1.print(std::cout);

  const auto& pair = r.pair(0, 1);
  core::TextTable t2({"Table 2 (diversity)", "count", "% of total"});
  t2.add_row({"Both", core::with_thousands(pair.both()), pct(pair.both())});
  t2.add_row({"Neither", core::with_thousands(pair.neither()),
              pct(pair.neither())});
  t2.add_row({"Arcane only", core::with_thousands(pair.second_only()),
              pct(pair.second_only())});
  t2.add_row({"Sentinel only", core::with_thousands(pair.first_only()),
              pct(pair.first_only())});
  std::printf("\n");
  t2.print(std::cout);

  const auto print_status = [](const char* title,
                               const stats::Counter<int>& counter) {
    core::TextTable t({title, "count"});
    for (const auto& [status, count] : counter.by_count()) {
      t.add_row({httplog::status_label(status),
                 core::with_thousands(count)});
    }
    std::printf("\n");
    t.print(std::cout);
  };
  print_status("Table 3: arcane alerts by status", r.alerted_status(1));
  print_status("Table 3: sentinel alerts by status", r.alerted_status(0));
  print_status("Table 4: arcane-only alerts by status",
               r.unique_alert_status(1));
  print_status("Table 4: sentinel-only alerts by status",
               r.unique_alert_status(0));

  // With ground truth (the paper's next step) we can already report the
  // per-tool confusion the authors were working toward.
  std::printf("\n");
  core::TextTable truth({"detector", "sensitivity", "specificity"});
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& cm = r.confusion(i);
    truth.add_row({std::string(r.names()[i]),
                   core::as_percent(cm.sensitivity()),
                   core::as_percent(cm.specificity())});
  }
  truth.print(std::cout);
  return 0;
}
