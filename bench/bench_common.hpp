// Shared plumbing for the table benches: scale parsing, the cached
// paper-pair experiment, and paper-vs-measured row printing.
//
// Every table bench accepts an optional scale argument (default 1.0 =
// paper-sized, ~1.47M requests, a few seconds) and prints, for each row of
// the corresponding paper table: the published count, the measured count
// (linearly rescaled to paper scale when scale < 1 so the comparison stays
// readable), the relative deviation, and a factor-of-two shape verdict.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/json.hpp"
#include "core/paper_reference.hpp"
#include "core/report.hpp"
#include "traffic/scenario.hpp"
#include "util/rss.hpp"

namespace divscrape::bench {

/// Parses argv[1] as the scenario scale; exits on nonsense.
inline double parse_scale(int argc, char** argv, double fallback = 1.0) {
  if (argc < 2) return fallback;
  const double scale = std::atof(argv[1]);
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "usage: %s [scale in (0,1]]\n", argv[0]);
    std::exit(1);
  }
  return scale;
}

/// Arguments of the machine-readable benches: a positional scale and an
/// optional `--json <path>`, in any order.
struct BenchArgs {
  double scale = 1.0;
  std::string json_path;  ///< empty = no JSON output
  /// Timed passes per configuration; the reported wall time is the MINIMUM
  /// across passes. On a shared CI host the minimum is the noise-robust
  /// estimator (interference only ever adds time), so `--repeat 3` turns a
  /// +-15% wall-clock jitter into a stable number.
  std::size_t repeat = 1;
};

/// Parses `[scale] [--json <path>] [--repeat <n>]`; exits with a usage
/// message on unknown flags, a missing flag value, or a scale outside
/// (0, 1] — nothing is silently ignored, so the JSON document always
/// records what actually ran.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  double fallback_scale) {
  const auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [scale in (0,1]] [--json <path>] [--repeat <n>]\n",
                 argv[0]);
    std::exit(1);
  };
  BenchArgs args;
  args.scale = fallback_scale;
  bool have_scale = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) usage();
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      if (i + 1 >= argc) usage();
      const long n = std::atol(argv[++i]);
      if (n < 1 || n > 100) usage();
      args.repeat = static_cast<std::size_t>(n);
    } else if (argv[i][0] == '-') {
      usage();  // unknown flag
    } else if (!have_scale) {
      args.scale = std::atof(argv[i]);
      if (args.scale <= 0.0 || args.scale > 1.0) usage();
      have_scale = true;
    } else {
      usage();
    }
  }
  return args;
}

/// One measured end-to-end run for the machine-readable bench output.
struct ThroughputRun {
  std::string mode;        ///< row label, e.g. "sequential"
  std::size_t shards = 0;  ///< 0 for sequential
  std::uint64_t records = 0;
  double wall_s = 0.0;
  std::size_t dispatchers = 0;    ///< 0 when not a multi-dispatcher run
  std::size_t batch_records = 0;  ///< 0 when not a batched run

  [[nodiscard]] double records_per_sec() const noexcept {
    return wall_s <= 0.0 ? 0.0 : static_cast<double>(records) / wall_s;
  }
  [[nodiscard]] double ns_per_record() const noexcept {
    return records == 0 ? 0.0
                        : wall_s * 1e9 / static_cast<double>(records);
  }
};

/// Writes the shared machine-readable bench document:
/// {schema, bench, scenario, scale, peak_rss_kb, runs:[{mode, shards,
///  records, wall_s, records_per_sec, ns_per_record}]}.
/// Every perf PR regenerates this to prove (or disprove) its speedup.
/// `scenario` names the workload measured (bench_workload runs catalog
/// entries; everything else runs the paper scenario).
inline bool write_throughput_json(const std::string& path,
                                  const std::string& bench_name, double scale,
                                  const std::vector<ThroughputRun>& runs,
                                  const std::string& scenario =
                                      "amadeus_like") {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("divscrape.bench_throughput.v1");
  json.key("bench").value(bench_name);
  json.key("scenario").value(scenario);
  json.key("scale").value(scale);
  json.key("peak_rss_kb").value(
      static_cast<std::uint64_t>(util::peak_rss_kb()));
  json.key("runs").begin_array();
  for (const auto& run : runs) {
    json.begin_object();
    json.key("mode").value(run.mode);
    json.key("shards").value(std::uint64_t{run.shards});
    if (run.dispatchers != 0)
      json.key("dispatchers").value(std::uint64_t{run.dispatchers});
    if (run.batch_records != 0)
      json.key("batch_records").value(std::uint64_t{run.batch_records});
    json.key("records").value(run.records);
    json.key("wall_s").value(run.wall_s);
    json.key("records_per_sec").value(run.records_per_sec());
    json.key("ns_per_record").value(run.ns_per_record());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

/// Runs the paper deployment on the amadeus_like scenario at `scale`.
inline core::ExperimentOutput run_paper(double scale) {
  core::ExperimentConfig config;
  config.scenario = traffic::amadeus_like(scale);
  std::printf("# divscrape :: scenario=amadeus_like scale=%.3f seed=%llu\n",
              scale,
              static_cast<unsigned long long>(config.scenario.seed));
  auto out = core::run_paper_experiment(config);
  std::printf("# processed %s records in %.2fs (%.0f records/s)\n\n",
              core::with_thousands(out.records).c_str(), out.wall_seconds,
              out.throughput_rps());
  return out;
}

/// One paper-vs-measured row; the measured count is scaled back up to
/// paper scale for display.
inline void add_comparison_row(core::TextTable& table, const std::string& row,
                               std::uint64_t paper, std::uint64_t measured,
                               double scale) {
  const auto scaled =
      scale >= 1.0 ? measured
                   : static_cast<std::uint64_t>(
                         static_cast<double>(measured) / scale + 0.5);
  table.add_row({row, core::with_thousands(paper),
                 core::with_thousands(scaled),
                 core::deviation(scaled, paper),
                 core::shape_verdict(scaled, paper)});
}

inline core::TextTable comparison_table(const std::string& first_header) {
  return core::TextTable(
      {first_header, "paper", "measured", "dev", "shape"});
}

}  // namespace divscrape::bench
