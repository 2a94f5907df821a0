// Shared plumbing for the benches: scale and flag parsing, the catalog
// amadeus_like spec, and the machine-readable throughput document. The
// paper's tables themselves are `divscrape_cli tables`.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "util/rss.hpp"
#include "workload/catalog.hpp"

namespace divscrape::bench {

/// Parses the whole of `text` as a number in (lo, hi] — an integer when
/// `integral` — or returns false. "nan", "inf", "1.5x" and "" all fail.
inline bool parse_bounded(const char* text, double lo, double hi,
                          bool integral, double& out) {
  char* end = nullptr;
  errno = 0;
  out = integral ? static_cast<double>(std::strtol(text, &end, 10))
                 : std::strtod(text, &end);
  // Every comparison with NaN is false, so the range test rejects it.
  return end != text && *end == '\0' && errno == 0 && out > lo && out <= hi;
}

/// Parses argv[1] as the scenario scale; exits 1 with the usage on
/// anything but a number in (0, 1].
inline double parse_scale(int argc, char** argv, double fallback = 1.0) {
  double scale = fallback;
  if (argc >= 2 && !parse_bounded(argv[1], 0.0, 1.0, false, scale)) {
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

/// Parses `[scale] [--json <path>] [--repeat <n>]`; exits 1 with a usage
/// message on unknown flags, a missing flag value, a scale that is not a
/// number in (0, 1] or a repeat that is not an integer in [1, 100] —
/// nothing is silently ignored, so the JSON document always records what
/// actually ran.
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
      double n = 0.0;
      if (i + 1 >= argc || !parse_bounded(argv[++i], 0.0, 100.0, true, n))
        usage();
      args.repeat = static_cast<std::size_t>(n);
    } else if (argv[i][0] == '-') {
      usage();  // unknown flag
    } else if (!have_scale) {
      if (!parse_bounded(argv[i], 0.0, 1.0, false, args.scale)) usage();
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

/// The paper workload: the catalog amadeus_like spec at `scale`.
inline workload::ScenarioSpec paper_spec(double scale) {
  return *workload::catalog_entry("amadeus_like", scale);
}

}  // namespace divscrape::bench
