// Workload-generation throughput: the WorkloadEngine's parallel
// time-merged generation (the one traffic generator) over a catalog
// scenario — the generation-side counterpart of the perfbench/ workloads
// (detection, catch-up and live ingest).
//
// Rows:
//
//   engine            WorkloadEngine at gen_threads 1 / 2 / 4 (the shards
//                     column records the thread count)
//
// Before the timed rows, the determinism contract is enforced: the full
// CLF stream at gen_threads 1, 2 and 4 must hash identically (FNV-1a 64)
// at a small scale, and the timed runs must agree on record count and a
// content checksum at the measured scale — any mismatch exits nonzero.
//
// Usage: bench_workload [scale] [--json <path>] [--scenario <name>]
//        (default scale 1.0, scenario amadeus_like)
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "httplog/clf.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace {

using namespace divscrape;

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct StreamDigest {
  std::uint64_t records = 0;
  std::uint64_t time_xor = 0;
  std::uint64_t content = 0;  ///< order-sensitive mix of cheap fields

  friend bool operator==(const StreamDigest& a,
                         const StreamDigest& b) noexcept {
    return a.records == b.records && a.time_xor == b.time_xor &&
           a.content == b.content;
  }
};

/// Runs the engine with a cheap non-elidable sink; wall time out-param.
StreamDigest run_engine(const workload::ScenarioSpec& spec,
                        std::size_t threads, double& wall_s) {
  workload::EngineConfig config;
  config.gen_threads = threads;
  workload::WorkloadEngine engine(spec, config);
  StreamDigest digest;
  const auto t0 = std::chrono::steady_clock::now();
  (void)engine.run([&digest](httplog::LogRecord&& record) {
    ++digest.records;
    digest.time_xor ^= static_cast<std::uint64_t>(record.time.micros());
    digest.content = digest.content * 1099511628211ULL +
                     (static_cast<std::uint64_t>(record.status) ^
                      record.bytes ^ record.ua_token);
  });
  wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count();
  return digest;
}

/// Full-fidelity hash of the serialized stream (byte-identity check).
std::uint64_t run_engine_clf_hash(const workload::ScenarioSpec& spec,
                                  std::size_t threads) {
  workload::EngineConfig config;
  config.gen_threads = threads;
  workload::WorkloadEngine engine(spec, config);
  std::uint64_t hash = 14695981039346656037ULL;
  (void)engine.run([&hash](httplog::LogRecord&& record) {
    hash = fnv1a64(httplog::format_clf(record), hash);
    hash = fnv1a64("\n", hash);
  });
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  bool have_scale = false;
  std::string json_path;
  std::string scenario_name = "amadeus_like";
  const auto usage = [&argv]() {
    std::fprintf(stderr,
                 "usage: %s [scale in (0,1]] [--json <path>] "
                 "[--scenario <name>]\n",
                 argv[0]);
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) return usage();
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      if (i + 1 >= argc) return usage();
      scenario_name = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (!have_scale) {
      if (!bench::parse_bounded(argv[i], 0.0, 1.0, false, scale))
        return usage();
      have_scale = true;
    } else {
      return usage();
    }
  }

  const auto spec = workload::catalog_entry(scenario_name, scale);
  if (!spec) {
    std::fprintf(stderr, "unknown catalog scenario \"%s\"\n",
                 scenario_name.c_str());
    return 1;
  }
  std::printf("# workload generation: scenario=%s scale=%.3f\n\n",
              scenario_name.c_str(), scale);

  // Determinism gate first, at a cheap scale: the serialized stream must
  // be byte-identical across thread counts.
  {
    const double check_scale = std::min(scale, 0.02);
    const auto check_spec =
        workload::catalog_entry(scenario_name, check_scale);
    const auto h1 = run_engine_clf_hash(*check_spec, 1);
    const auto h2 = run_engine_clf_hash(*check_spec, 2);
    const auto h4 = run_engine_clf_hash(*check_spec, 4);
    if (h1 != h2 || h1 != h4) {
      std::fprintf(stderr,
                   "FAIL: CLF stream differs across gen_threads 1/2/4 at "
                   "scale %.3f\n",
                   check_scale);
      return 1;
    }
    std::printf("  determinism: CLF streams identical at threads 1/2/4 "
                "(scale %.3f, fnv64 %016llx)\n",
                check_scale, static_cast<unsigned long long>(h1));
  }

  std::vector<bench::ThroughputRun> runs;

  StreamDigest reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    double wall = 0.0;
    const StreamDigest digest = run_engine(*spec, threads, wall);
    if (!have_reference) {
      reference = digest;
      have_reference = true;
    } else if (!(digest == reference)) {
      std::fprintf(stderr,
                   "FAIL: stream digest differs at gen_threads %zu\n",
                   threads);
      return 1;
    }
    runs.push_back({"engine", threads, digest.records, wall});
  }

  std::printf("\n  %-18s %8s %12s %14s %14s\n", "mode", "threads",
              "wall(s)", "records/s", "ns/record");
  for (const auto& run : runs) {
    std::printf("  %-18s %8zu %12.2f %14.0f %14.0f\n", run.mode.c_str(),
                run.shards, run.wall_s, run.records_per_sec(),
                run.ns_per_record());
  }
  std::printf("\n  peak RSS: %llu kB\n",
              static_cast<unsigned long long>(util::peak_rss_kb()));

  if (!json_path.empty()) {
    if (!bench::write_throughput_json(json_path, "bench_workload", scale,
                                      runs, scenario_name))
      return 1;
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
