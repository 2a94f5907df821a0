// divscrape — command-line front end to the library.
//
//   divscrape simulate  <scenario|spec.json>  run a catalog/spec workload
//                                through the parallel WorkloadEngine (the
//                                one traffic generator; CLF on stdout)
//   divscrape analyze   <log>    run the two detectors over a CLF file
//                                (one pipeline::ReplayEngine, the single-
//                                thread baseline)
//   divscrape tail      <log>... follow growing CLF file(s) (deployment mode)
//   divscrape tables    [opts]   regenerate the paper's four tables next
//                                to the paper's values, plus diversity
//                                metrics, 1oo2/2oo2 adjudication, parallel
//                                vs serial deployment (§V) and the causes
//                                of single-tool alerts (catalog
//                                amadeus_like at --scale; an ablation is
//                                `tables --set <detector key>=<value>`)
//   divscrape export    [opts]   run the experiment, emit JSON results
//   divscrape label     <log>    heuristically label a CLF file (paper §V)
//   divscrape soak      [scenario]  chaos soak: closed generate->tail loop
//                                under scripted faults (default: megasite)
//   divscrape score     <scenario|spec.json>  run a workload through the
//                                detector pair and score detection quality
//                                (precision/recall/AUC/time-to-detect per
//                                detector and for the 1oo2 ensemble)
//
// Common options:
//   --config <file>     key=value config (see core/config.hpp header)
//   --set k=v           inline override (repeatable)
//   --scale <s>         shorthand for --set scenario.scale=s, the one
//                       scenario key: a finite number > 0, else exit 2
//                       (edit a spec for the rest: simulate <name>
//                       --dump-spec). A key the command does not read
//                       exits 2: scenario.scale is read by simulate, soak,
//                       score, tables and export; sentinel.*/arcane.* by
//                       analyze, tail, tables, export and simulate --detect
//   --alerts <file>     (analyze) also write a JSONL alert log
//   --csv <prefix>      (export) also write <prefix>_{totals,pairs,status}.csv
//
// Simulate options:
//   --list              print the scenario catalog and exit
//   --dump-spec         print the resolved spec JSON and exit (the
//                       template workflow: dump, edit, simulate the file)
//   --gen-threads <n>   generator worker threads (output is identical for
//                       any value — the determinism contract)
//   --partitions <n>    logical partitions (part of the output contract;
//                       default 8)
//   --out <file>        write the merged stream as a CLF log (batched
//                       writev writer); default without --out/--detect is
//                       CLF on stdout
//   --out-multi <dir>   write one CLF log per vhost under <dir> (the
//                       deployment shape `tail` ingests); SIGINT flushes
//                       and closes every log cleanly
//   --detect            feed the stream to the sentinel+arcane pair (the
//                       DetectionStage `tail` builds) and print the joint
//                       summary
//   --shards <n>        with --detect: sharded detection on n workers;
//                       every worker reads each RecordBatch and evaluates
//                       the records of its own /24s
// Lazy actor materialization is chosen automatically for megasite-class
// specs (>= 200k scripted actors); the output is identical either way.
//
// Soak options (see pipeline/chaos.hpp for the full contract):
//   --out <dir>         work directory (live logs, shadows, checkpoints;
//                       default soak_run)
//   --bench <file>      machine-readable report (default BENCH_soak.json)
//   --smoke             CI-sized run: --scale 0.01 + tight persist cadence
//   --chaos-seed <n>    fault schedule seed
//   --rss-limit-mb <n>  RSS high-water bound (default 4096; <= 0 disables)
//   --gen-threads <n>   generator worker threads (default 4)
//
// Tail options (every tail runs on pipeline::TailSession):
//   --checkpoint <file>   resume from / persist one log's checkpoint file
//                         (one log, no --shards or --checkpoint-dir; it
//                         carries the detector-state blob, so resume is
//                         warm when the blob restores)
//   --checkpoint-dir <d>  per-log checkpoint files under one directory
//                         (any number of logs, any --shards). Adds
//                         tail_session.state.json: per-log offsets + the
//                         shared detector state, committed last so warm
//                         resume always sees a consistent cut
//   --shards <n>          hand merged records to a ShardedPipeline with
//                         n worker threads (results print at exit); the
//                         merged stream is framed into RecordBatches
//   --reorder-ms <n>      multi-file merge reorder window (default 2000)
//   --follow              keep polling after catching up (stop with SIGINT)
//   --poll-ms <n>         follow-mode poll interval (default 200)
//   --results <file>      periodically flush JointResults JSON (atomic
//                         rename; sharded mode writes it once at exit)
//   --flush-every <n>     flush results/checkpoint every n parsed records
//
// Numeric flags parse in full: no sign on a count, a finite
// --rss-limit-mb, else exit 2. So do config values: a detector key whose
// value does not parse in full as its type (`flase`, `6OO`) exits 2.
//
// Score options:
//   --json <file>       also write the single-scenario DetectionDocument
//                       (schema divscrape.bench_detection.v1)
//   --gen-threads <n>   generator worker threads (the score is identical
//                       for any value — the determinism contract)
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/contingency.hpp"
#include "core/export.hpp"
#include "core/labeling.hpp"
#include "core/paper_reference.hpp"
#include "core/report.hpp"
#include "core/topology.hpp"
#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "eval/run.hpp"
#include "eval/scorer.hpp"
#include "httplog/io.hpp"
#include "pipeline/alert_log.hpp"
#include "pipeline/chaos.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/detection_stage.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/tail_session.hpp"
#include "stats/association.hpp"
#include "traffic/actor.hpp"
#include "traffic/stream_writer.hpp"
#include "util/atomic_file.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

using namespace divscrape;

namespace {

struct CliOptions {
  std::string command;
  std::string input;                ///< first positional (single-log cmds)
  std::vector<std::string> inputs;  ///< all positionals (tail takes many)
  std::string alerts_path;
  std::string csv_prefix;
  std::string checkpoint_path;
  std::string checkpoint_dir;
  std::string results_path;
  std::string out_path;
  std::string out_multi_dir;
  std::string bench_path;
  std::string json_path;
  bool follow = false;
  bool detect = false;
  bool list = false;
  bool dump_spec = false;
  bool smoke = false;
  std::uint64_t chaos_seed = 0xC4A05ULL;
  double rss_limit_mb = 4096.0;
  int poll_ms = 200;
  int reorder_ms = 2000;
  std::size_t shards = 1;
  std::size_t gen_threads = 0;  ///< 0 = the command's default (soak 4, else 1)
  std::size_t partitions = 0;  ///< 0 = engine default
  std::uint64_t flush_every = 100000;
  core::KeyValueConfig config;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: divscrape "
      "<simulate|analyze|tail|tables|export|label|soak|score> "
      "[options]\n"
      "  score    <scenario|spec.json> [--json <file>] [--gen-threads <n>]\n"
      "  simulate <scenario|spec.json> [--list] [--dump-spec]\n"
      "           [--gen-threads <n>] [--partitions <n>]\n"
      "           [--out <file>] [--out-multi <dir>] [--detect] "
      "[--shards <n>]\n"
      "  soak     [scenario] [--out <dir>] [--bench <file>] [--smoke]\n"
      "           [--chaos-seed <n>] [--rss-limit-mb <n>] [--gen-threads <n>]\n"
      "  --config <file>       load key=value configuration\n"
      "  --set k=v             inline config override (repeatable)\n"
      "  --scale <s>           scenario scale, a number > 0\n"
      "  --alerts <file>       (analyze) write JSONL alert log\n"
      "  --csv <prefix>        (export) also write CSV files\n"
      "  --checkpoint <file>   (tail, 1 log) resume/persist ingest position\n"
      "  --checkpoint-dir <d>  (tail) per-log checkpoints under one dir\n"
      "  --shards <n>          (tail, simulate --detect) sharded detection,\n"
      "                        n worker threads\n"
      "  --reorder-ms <n>      (tail) merge reorder window, default 2000\n"
      "  --follow              (tail) keep polling; SIGINT checkpoints+exits\n"
      "  --poll-ms <n>         (tail) follow poll interval, default 200\n"
      "  --results <file>      (tail) periodic JointResults JSON flush\n"
      "  --flush-every <n>     (tail) flush cadence in parsed records\n");
  return 2;
}

/// Parses all of `text` (nullptr = a missing flag value) as a T in
/// [lo, hi]. std::from_chars takes no leading space or '+', and no '-' for
/// an unsigned T; NaN and infinity fail the range test.
template <typename T>
bool parse_flag(const char* text, T lo, T hi, T& out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi))
    return false;
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  if (argc < 2) return false;
  opts.command = argv[1];
  // Flags that take a path (or prefix) as given, and flags that take none.
  const std::map<std::string, std::string CliOptions::*> text_flags = {
      {"--alerts", &CliOptions::alerts_path},
      {"--csv", &CliOptions::csv_prefix},
      {"--checkpoint", &CliOptions::checkpoint_path},
      {"--checkpoint-dir", &CliOptions::checkpoint_dir},
      {"--results", &CliOptions::results_path},
      {"--out", &CliOptions::out_path},
      {"--out-multi", &CliOptions::out_multi_dir},
      {"--bench", &CliOptions::bench_path},
      {"--json", &CliOptions::json_path}};
  const std::map<std::string, bool CliOptions::*> switches = {
      {"--follow", &CliOptions::follow}, {"--detect", &CliOptions::detect},
      {"--list", &CliOptions::list}, {"--dump-spec", &CliOptions::dump_spec},
      {"--smoke", &CliOptions::smoke}};
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (const auto text = text_flags.find(arg); text != text_flags.end()) {
      const char* value = next();
      if (!value) return false;
      opts.*(text->second) = value;
    } else if (const auto on = switches.find(arg); on != switches.end()) {
      opts.*(on->second) = true;
    } else if (arg == "--config") {
      const char* path = next();
      if (!path) return false;
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "cannot open config %s\n", path);
        return false;
      }
      if (!opts.config.parse(in)) {
        for (const auto& e : opts.config.errors())
          std::fprintf(stderr, "config: %s\n", e.c_str());
        return false;
      }
    } else if (arg == "--set") {
      const char* kv = next();
      if (!kv) return false;
      const std::string text = kv;
      const auto eq = text.find('=');
      if (eq == std::string::npos) return false;
      opts.config.set(text.substr(0, eq), text.substr(eq + 1));
    } else if (arg == "--scale") {
      const char* s = next();
      if (!s) return false;
      opts.config.set("scenario.scale", s);
    } else if (arg == "--shards") {
      ok = parse_flag(next(), std::size_t{1}, std::size_t{64}, opts.shards);
    } else if (arg == "--reorder-ms") {
      ok = parse_flag(next(), 0, 3600000, opts.reorder_ms);
    } else if (arg == "--poll-ms") {
      ok = parse_flag(next(), 1, 3600000, opts.poll_ms);
    } else if (arg == "--flush-every") {
      ok = parse_flag(next(), std::uint64_t{1}, kU64Max, opts.flush_every);
    } else if (arg == "--chaos-seed") {
      ok = parse_flag(next(), std::uint64_t{0}, kU64Max, opts.chaos_seed);
    } else if (arg == "--rss-limit-mb") {  // <= 0 disables (chaos.hpp)
      ok = parse_flag(next(), -kDoubleMax, kDoubleMax, opts.rss_limit_mb);
    } else if (arg == "--gen-threads") {
      ok = parse_flag(next(), std::size_t{1}, std::size_t{64},
                      opts.gen_threads);
    } else if (arg == "--partitions") {
      ok = parse_flag(next(), std::size_t{1}, std::size_t{256},
                      opts.partitions);
    } else if (!arg.empty() && arg[0] != '-') {
      // Positional argument: tail accepts many logs, other commands use
      // the first.
      opts.inputs.push_back(arg);
      if (opts.input.empty()) opts.input = arg;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

std::vector<std::unique_ptr<detectors::Detector>> pair_from(
    const core::KeyValueConfig& config) {
  detectors::SentinelConfig sc;
  detectors::ArcaneConfig ac;
  core::apply_sentinel_config(config, sc);
  core::apply_arcane_config(config, ac);
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  pool.push_back(std::make_unique<detectors::SentinelDetector>(sc));
  pool.push_back(std::make_unique<detectors::ArcaneDetector>(ac));
  return pool;
}

/// Every config key must be one the command reads, so a stale or mistyped
/// key never runs a silently different experiment (a typo in a `tables
/// --set` ablation would print the baseline). `scenario.scale` (alias
/// --scale) is the one scenario key, read by the commands that resolve a
/// scenario; everything else about a scenario lives in its spec. The
/// `sentinel.*`/`arcane.*` keys are read by the commands that build the
/// detector pair. Names every other key on one line and returns false.
/// Also returns false, naming each, when a value read here does not parse
/// in full as its key's type (a `flase` would otherwise run the default).
/// Call before any key is read (unconsumed() then lists every key).
bool config_keys_supported(const CliOptions& opts) {
  const std::string& c = opts.command;
  if (c == "simulate" || c == "soak" || c == "score" || c == "tables" ||
      c == "export")
    (void)opts.config.get("scenario.scale");
  if (c == "analyze" || c == "tail" || c == "tables" || c == "export" ||
      (c == "simulate" && opts.detect))
    (void)pair_from(opts.config);  // reads every detector key
  std::string unread;
  bool scenario_key = false;
  for (const auto& key : opts.config.unconsumed()) {
    unread += (unread.empty() ? "" : ", ") + key;
    scenario_key |= key.rfind("scenario.", 0) == 0 && key != "scenario.scale";
  }
  for (const auto& error : opts.config.errors())
    std::fprintf(stderr, "%s: config %s\n", c.c_str(), error.c_str());
  if (unread.empty()) return opts.config.errors().empty();
  std::fprintf(stderr, "%s: unsupported config key(s) %s: %s reads none of "
               "them%s\n",
               opts.command.c_str(), unread.c_str(), opts.command.c_str(),
               scenario_key ? "; scenario.scale is the only scenario key, "
                              "edit a spec instead (simulate <scenario> "
                              "--dump-spec > spec.json)"
                            : "");
  return false;
}

/// `scenario.scale`, when set, must parse in full as a finite number > 0:
/// a typo must not fall back to scale 1, and NaN must not run. Call after
/// config_keys_supported (reading a key consumes it).
bool scale_supported(const CliOptions& opts) {
  const auto text = opts.config.get("scenario.scale");
  if (!text) return true;
  double scale = 0.0;
  if (parse_flag(text->c_str(), std::numeric_limits<double>::denorm_min(),
                 std::numeric_limits<double>::max(), scale))
    return true;
  std::fprintf(stderr,
               "%s: --scale must be a finite number > 0 (got \"%s\")\n",
               opts.command.c_str(), text->c_str());
  return false;
}

void print_detector_summary(const core::JointResults& r);

volatile std::sig_atomic_t g_tail_interrupted = 0;

void tail_sigint(int) { g_tail_interrupted = 1; }

/// Resolves a scenario (the simulate/soak/score positional; amadeus_like for
/// tables/export): a catalog name first, then a spec file. The catalog wins
/// on a name collision (rename the file).
std::optional<workload::ScenarioSpec> resolve_spec(const CliOptions& opts,
                                                  const std::string& input) {
  const bool scale_set = opts.config.get("scenario.scale").has_value();
  const double scale = opts.config.get_double("scenario.scale", 1.0);
  if (auto spec = workload::catalog_entry(input, scale)) return spec;
  std::string error;
  auto spec = workload::ScenarioSpec::load(input, &error);
  if (!spec) {
    std::fprintf(stderr,
                 "%s: \"%s\" is not a catalog scenario, and loading "
                 "it as a spec file failed: %s\n",
                 opts.command.c_str(), input.c_str(), error.c_str());
    return std::nullopt;
  }
  if (scale_set) spec->scale = scale;  // --scale overrides the file
  return spec;
}

int cmd_simulate(const CliOptions& opts) {
  if (opts.list) {
    std::printf("scenario catalog:\n");
    for (const auto& entry : workload::catalog()) {
      std::printf("  %-20s %s\n", std::string(entry.name).c_str(),
                  std::string(entry.description).c_str());
    }
    return 0;
  }
  if (opts.input.empty()) {
    std::fprintf(stderr,
                 "simulate: missing <scenario|spec.json> "
                 "(try: simulate --list)\n");
    return 2;
  }
  auto spec = resolve_spec(opts, opts.input);
  if (!spec) return 1;
  if (opts.dump_spec) {
    std::printf("%s\n", spec->to_json().c_str());
    return 0;
  }

  workload::EngineConfig engine_config;
  if (opts.gen_threads != 0) engine_config.gen_threads = opts.gen_threads;
  if (opts.partitions != 0) engine_config.partitions = opts.partitions;
  // Megasite-class specs only fit in memory lazily; small ones skip the
  // second construction pass (see EngineConfig::lazy_actors).
  engine_config.lazy_actors = workload::static_population(*spec) >= 200'000;
  workload::WorkloadEngine engine(std::move(*spec), engine_config);

  // Compose the sink: an optional CLF writer (file, per-vhost directory,
  // or stdout when neither --out nor --detect asked for anything else)
  // plus an optional detector pair: the DetectionStage every tail builds.
  std::unique_ptr<traffic::StreamWriter> file_writer;
  if (!opts.out_path.empty()) {
    file_writer = std::make_unique<traffic::StreamWriter>(
        opts.out_path, traffic::StreamWriter::FaultPlan(), 512);
  }
  std::vector<std::unique_ptr<traffic::StreamWriter>> vhost_writers;
  if (!opts.out_multi_dir.empty()) {
    if (::mkdir(opts.out_multi_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "simulate: cannot create %s\n",
                   opts.out_multi_dir.c_str());
      return 1;
    }
    for (std::size_t v = 0; v < engine.spec().vhosts.size(); ++v) {
      vhost_writers.push_back(std::make_unique<traffic::StreamWriter>(
          opts.out_multi_dir + "/v" + std::to_string(v) + "_" +
              engine.spec().vhosts[v].name + ".log",
          traffic::StreamWriter::FaultPlan(), 512));
    }
  }
  const bool stdout_log =
      opts.out_path.empty() && opts.out_multi_dir.empty() && !opts.detect;
  httplog::LogWriter stdout_writer(std::cout);

  std::unique_ptr<pipeline::DetectionStage> stage;
  if (opts.detect) {
    stage = std::make_unique<pipeline::DetectionStage>(
        [&opts] { return pair_from(opts.config); }, opts.shards);
  }
  pipeline::BatchPool batch_pool;

  // A long generation run must be interruptible without shearing a log
  // mid-line: SIGINT requests a cooperative stop at the next record
  // boundary and every writer below gets its normal flush-and-close.
  std::signal(SIGINT, tail_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t records = engine.run_batched(
      [&](pipeline::RecordBatch&& batch) {
        if (g_tail_interrupted) engine.request_stop();
        for (const auto& record : batch) {
          if (file_writer) file_writer->write(record);
          if (!vhost_writers.empty()) {
            const std::size_t v =
                record.vhost < vhost_writers.size() ? record.vhost : 0;
            vhost_writers[v]->write(record);
          }
          if (stdout_log) stdout_writer.write(record);
        }
        if (stage) {
          stage->process_batch(std::move(batch));
        } else {
          batch_pool.recycle(std::move(batch));
        }
      },
      pipeline::DetectionStage::kBatchRecords,
      stage ? &stage->batch_pool() : &batch_pool);
  if (file_writer) file_writer->flush();
  for (auto& writer : vhost_writers) writer->flush();
  std::optional<core::JointResults> results;
  if (stage) results = stage->finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::fprintf(stderr,
               "simulated \"%s\" scale %.3g: %s records, %zu vhosts, %zu "
               "gen threads x %zu partitions, %.2fs (%s records/s)\n",
               engine.spec().name.c_str(), engine.spec().scale,
               core::with_thousands(records).c_str(),
               engine.spec().vhosts.size(), engine.config().gen_threads,
               engine.config().partitions, wall,
               core::with_thousands(static_cast<std::uint64_t>(
                                        wall > 0.0 ? records / wall : 0))
                   .c_str());
  if (results) print_detector_summary(*results);
  if (g_tail_interrupted) {
    std::fprintf(stderr,
                 "interrupted: stopped at a record boundary, all logs "
                 "flushed and closed\n");
    return 130;
  }
  return 0;
}

/// The single-thread baseline: one ReplayEngine over one log, with the
/// `--alerts` JSONL writer as its observer.
int cmd_analyze(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr, "analyze: missing <log> path\n");
    return 2;
  }
  std::ifstream in(opts.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opts.input.c_str());
    return 1;
  }
  const auto pool = pair_from(opts.config);

  std::ofstream alerts_file;
  std::unique_ptr<pipeline::AlertLogWriter> alerts;
  pipeline::RecordObserver write_alerts;
  if (!opts.alerts_path.empty()) {
    alerts_file.open(opts.alerts_path);
    if (!alerts_file) {
      std::fprintf(stderr, "cannot open %s\n", opts.alerts_path.c_str());
      return 1;
    }
    alerts = std::make_unique<pipeline::AlertLogWriter>(alerts_file);
    write_alerts = [&](const httplog::LogRecord& record,
                       divscrape::span<const detectors::Verdict> verdicts) {
      for (std::size_t d = 0; d < pool.size(); ++d)
        alerts->write(pool[d]->name(), record, verdicts[d]);
    };
  }

  pipeline::ReplayEngine engine(pool, std::move(write_alerts));
  const auto stats = engine.replay(in);
  const auto& r = engine.results();
  std::printf("parsed %s records (%s lines skipped)\n",
              core::with_thousands(r.total_requests()).c_str(),
              core::with_thousands(stats.skipped).c_str());
  print_detector_summary(r);
  if (alerts) {
    std::printf("wrote %s alert events to %s\n",
                core::with_thousands(alerts->written()).c_str(),
                opts.alerts_path.c_str());
  }
  return 0;
}

/// Atomic results flush (a no-op without --results): SOC dashboards read
/// the file while we rewrite it, so the document replaces the previous one
/// in a single rename. A failed write is reported; the tail keeps going.
void flush_results(const core::JointResults& results,
                   const std::string& path) {
  if (path.empty() ||
      util::write_file_atomic(path, core::to_json(results) + "\n"))
    return;
  std::fprintf(stderr, "cannot write results %s\n", path.c_str());
}

void print_detector_summary(const core::JointResults& r) {
  for (std::size_t d = 0; d < r.detector_count(); ++d) {
    std::printf("  %-10s alerts %s\n", r.names()[d].c_str(),
                core::with_thousands(r.alerts(d)).c_str());
  }
  if (r.detector_count() >= 2) {
    const auto& pair = r.pair(0, 1);
    std::printf(
        "  both %s | neither %s | sentinel-only %s | arcane-only %s\n",
        core::with_thousands(pair.both()).c_str(),
        core::with_thousands(pair.neither()).c_str(),
        core::with_thousands(pair.first_only()).c_str(),
        core::with_thousands(pair.second_only()).c_str());
  }
}

/// Every `tail`: a thin driver around pipeline::TailSession, which owns
/// ingest, resume and persist.
int cmd_tail(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr, "tail: missing <log> path\n");
    return 2;
  }
  pipeline::TailSessionConfig config;
  config.paths = opts.inputs;
  config.checkpoint_dir = opts.checkpoint_dir;
  config.checkpoint_file = opts.checkpoint_path;
  config.factory = [&opts] { return pair_from(opts.config); };
  config.shards = opts.shards;
  config.reorder_window_us = static_cast<std::int64_t>(opts.reorder_ms) * 1000;
  std::unique_ptr<pipeline::TailSession> session;
  try {
    session = std::make_unique<pipeline::TailSession>(std::move(config));
  } catch (const std::invalid_argument& e) {  // --checkpoint misuse
    std::fprintf(stderr, "tail: %s\n", e.what());
    return 2;
  }
  const auto resumed = session->resume();
  using Outcome = pipeline::TailResume::Outcome;
  if (resumed.outcome == Outcome::kStateRejected) {
    std::fprintf(stderr,
                 "warning: cannot restore detector state from %s "
                 "(replaced log, mode change, or stale blob); "
                 "detection restarts cold\n",
                 resumed.session_path.c_str());
  } else if (resumed.outcome == Outcome::kOtherLogSet) {
    std::fprintf(stderr,
                 "warning: %s describes a different log set; detection "
                 "restarts cold\n",
                 resumed.session_path.c_str());
  }
  for (std::size_t i = 0; i < resumed.logs.size(); ++i) {
    const auto& log = resumed.logs[i];
    if (log.from.empty()) continue;
    std::fprintf(stderr,
                 "resumed %s from %s: offset %llu %s (%llu records already "
                 "ingested; detector state %s)\n",
                 opts.inputs[i].c_str(), log.from.c_str(),
                 static_cast<unsigned long long>(log.offset),
                 log.honored ? "honored" : "discarded (file replaced)",
                 static_cast<unsigned long long>(log.parsed),
                 resumed.warm() ? "restored warm" : "restarts cold");
  }
  if (opts.follow) std::signal(SIGINT, tail_sigint);
  if (!opts.results_path.empty() && opts.shards > 1) {
    std::fprintf(stderr,
                 "note: sharded tail writes --results once at exit "
                 "(per-shard results merge only on finish)\n");
  }

  // Nothing to write => no periodic persist: the flush would force
  // queued records past the watermark and the sharded drain would stall
  // the caller, all for no durable artifact.
  const bool persist_output = !opts.checkpoint_dir.empty() ||
                              !opts.checkpoint_path.empty() ||
                              !opts.results_path.empty();
  const pipeline::MultiTailer& tailer = session->tailer();
  std::uint64_t last_flush_parsed = 0;
  int idle_polls = 0;
  for (;;) {
    const std::size_t consumed = session->poll();
    if (persist_output &&
        tailer.stats().parsed - last_flush_parsed >= opts.flush_every) {
      last_flush_parsed = tailer.stats().parsed;
      session->persist();
      if (const auto* live = session->stage().live_results())
        flush_results(*live, opts.results_path);
    }
    if (!opts.follow) break;  // one drain: batch-catch-up semantics
    if (g_tail_interrupted) break;
    if (consumed == 0) {
      // Every log has gone quiet: the watermark and the reorder window
      // are both keyed to *new* records' simulated time, so without this
      // wall-clock escape a final burst would sit in the merge queues
      // until SIGINT. A laggard waking up afterwards emits late (counted)
      // rather than being dropped.
      if (++idle_polls >= 2 && tailer.buffered_records() > 0) {
        (void)session->flush();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
    } else {
      idle_polls = 0;
    }
  }
  session->persist();

  const auto stats = tailer.stats();
  std::printf(
      "tailed %zu logs (%zu shards): %s records parsed, "
      "%s lines skipped, %llu rotations, %llu truncations, %llu lost "
      "incarnations, %llu read errors, %llu late, %llu forced",
      tailer.files(), opts.shards,
      core::with_thousands(stats.parsed).c_str(),
      core::with_thousands(stats.skipped).c_str(),
      static_cast<unsigned long long>(tailer.rotations()),
      static_cast<unsigned long long>(tailer.truncations()),
      static_cast<unsigned long long>(tailer.lost_incarnations()),
      static_cast<unsigned long long>(tailer.read_errors()),
      static_cast<unsigned long long>(tailer.late_records()),
      static_cast<unsigned long long>(tailer.forced_emits()));
  if (const std::size_t partial = tailer.partial_lines())
    std::printf(" (%zu partial line%s held un-ingested)", partial,
                partial == 1 ? "" : "s");
  std::printf("\n");
  const auto results = session->finish();
  flush_results(results, opts.results_path);
  const auto per_shard = session->stage().shard_processed();
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    std::printf("shard %zu: %s records\n", s,
                core::with_thousands(per_shard[s]).c_str());
  }
  print_detector_summary(results);
  return 0;
}

/// Chaos soak: the closed generate->tail loop under scripted faults (see
/// pipeline/chaos.hpp). Exit status is the verdict — nonzero unless every
/// record was ingested exactly once, results matched the batch-replay
/// reference byte for byte, every kill resumed warm and RSS stayed bounded.
int cmd_soak(CliOptions opts) {
  if (opts.input.empty()) opts.input = "megasite";
  if (opts.smoke && !opts.config.get("scenario.scale").has_value()) {
    opts.config.set("scenario.scale", "0.01");
  }
  auto spec = resolve_spec(opts, opts.input);
  if (!spec) return 1;

  pipeline::ChaosConfig config;
  config.spec = std::move(*spec);
  config.work_dir = opts.out_path.empty() ? "soak_run" : opts.out_path;
  config.chaos_seed = opts.chaos_seed;
  if (opts.gen_threads != 0) config.gen_threads = opts.gen_threads;
  if (opts.partitions != 0) config.partitions = opts.partitions;
  config.rss_limit_mb = opts.rss_limit_mb;
  config.verbose = true;
  // Smoke runs are ~1% of the records, so the persist cadence tightens in
  // step: several warm cuts must still land between any two fault epochs.
  if (opts.smoke) config.persist_every_records = 5'000;

  std::fprintf(stderr,
               "soak: \"%s\" scale %.3g, %zu vhosts, %d fault epochs, "
               "chaos seed %llu, work dir %s\n",
               config.spec.name.c_str(), config.spec.scale,
               config.spec.vhosts.size(), pipeline::kChaosFaultEpochs,
               static_cast<unsigned long long>(config.chaos_seed),
               config.work_dir.c_str());
  const auto report = pipeline::run_chaos_soak(config);

  const std::string bench_path =
      opts.bench_path.empty() ? "BENCH_soak.json" : opts.bench_path;
  if (!pipeline::write_chaos_bench(config, report, bench_path)) {
    std::fprintf(stderr, "soak: cannot write %s\n", bench_path.c_str());
  }

  std::printf(
      "soak %s: %s records (%llu scripted drops), %llu faults "
      "(%llu rotations, %llu truncations, %llu torn, %llu enospc, %llu "
      "short-write bursts, %llu kills), %llu warm / %llu cold resumes, "
      "%llu checkpoints\n",
      report.passed ? "PASSED" : "FAILED",
      core::with_thousands(report.records_generated).c_str(),
      static_cast<unsigned long long>(report.records_dropped),
      static_cast<unsigned long long>(report.faults),
      static_cast<unsigned long long>(report.rotations),
      static_cast<unsigned long long>(report.truncations),
      static_cast<unsigned long long>(report.torn_writes),
      static_cast<unsigned long long>(report.enospc_faults),
      static_cast<unsigned long long>(report.short_write_bursts),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.warm_resumes),
      static_cast<unsigned long long>(report.cold_resumes),
      static_cast<unsigned long long>(report.checkpoints_persisted));
  std::printf(
      "  exactly-once: %llu lost, %llu duplicated; results %s reference; "
      "peak RSS %.1f MiB (%s %.0f MiB limit); %.1fs wall "
      "(%s records/s); report: %s\n",
      static_cast<unsigned long long>(report.lost_records),
      static_cast<unsigned long long>(report.duplicate_records),
      report.results_identical ? "byte-identical to" : "DIVERGED from",
      static_cast<double>(report.rss_peak_kb) / 1024.0,
      report.rss_within_limit ? "within" : "OVER",
      config.rss_limit_mb,
      report.wall_seconds,
      core::with_thousands(
          static_cast<std::uint64_t>(report.records_per_s))
          .c_str(),
      bench_path.c_str());
  return report.passed ? 0 : 1;
}

/// Detection-quality scoring: the bench_detection engine behind a CLI seam,
/// for scoring one scenario (catalog entry or spec file) interactively —
/// e.g. a freshly authored evasion spec, before promoting it to the
/// catalog. Same scorer, same document schema, same determinism contract.
int cmd_score(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr,
                 "score: missing <scenario|spec.json> "
                 "(try: simulate --list)\n");
    return 2;
  }
  auto spec = resolve_spec(opts, opts.input);
  if (!spec) return 1;

  eval::RunOptions run_options;
  run_options.gen_threads = opts.gen_threads != 0 ? opts.gen_threads : 1;
  const auto t0 = std::chrono::steady_clock::now();
  const auto score = eval::score_scenario(*spec, run_options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%s (scale %.3f): %s records scored (%s benign, %s "
              "malicious), %llu attacking actors, %.2fs\n",
              score.scenario.c_str(), score.scale,
              core::with_thousands(score.records).c_str(),
              core::with_thousands(score.truth_benign).c_str(),
              core::with_thousands(score.truth_malicious).c_str(),
              static_cast<unsigned long long>(score.actors_attacking), wall);
  std::printf("  %-14s %9s %9s %9s %9s %12s %10s\n", "column", "prec",
              "recall", "f1", "auc", "actors", "ttd_p50");
  for (const auto& column : score.columns) {
    std::printf(
        "  %-14s %8.1f%% %8.1f%% %8.1f%% %9.4f %6llu/%-5llu %9.0fs\n",
        column.name.c_str(), 100.0 * column.precision(),
        100.0 * column.recall(), 100.0 * column.f1(), column.auc,
        static_cast<unsigned long long>(column.actors_detected),
        static_cast<unsigned long long>(score.actors_attacking),
        column.ttd_p50_s);
  }

  if (!opts.json_path.empty()) {
    eval::DetectionDocument document;
    document.scenarios.push_back(score);
    if (!document.save(opts.json_path)) {
      std::fprintf(stderr, "score: cannot write %s\n",
                   opts.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", opts.json_path.c_str());
  }
  return 0;
}

/// One paper-vs-measured row: the measured count, then that count scaled
/// by 1/scale back to paper size with its deviation and shape verdict.
void add_comparison_row(core::TextTable& table, const std::string& row,
                        std::uint64_t paper, std::uint64_t measured,
                        double scale) {
  const auto scaled =
      static_cast<std::uint64_t>(static_cast<double>(measured) / scale + 0.5);
  table.add_row({row, core::with_thousands(paper),
                 core::with_thousands(measured), core::with_thousands(scaled),
                 core::deviation(scaled, paper),
                 core::shape_verdict(scaled, paper)});
}

core::TextTable comparison_table(const std::string& first_header) {
  return core::TextTable(
      {first_header, "paper", "measured", "scaled", "dev", "shape"});
}

/// The paper's status rows in its order, then statuses only we measured.
void print_status_table(const std::string& title,
                        const core::paper::StatusRows& paper_rows,
                        const stats::Counter<int>& measured, double scale) {
  std::printf("%s\n", title.c_str());
  auto table = comparison_table("HTTP status");
  for (const auto& [status, paper_count] : paper_rows) {
    add_comparison_row(table, httplog::status_label(status), paper_count,
                       measured.count(status), scale);
  }
  for (const auto& [status, count] : measured.by_count()) {
    bool in_paper = false;
    for (const auto& row : paper_rows) in_paper |= row.first == status;
    if (!in_paper) {
      add_comparison_row(table, httplog::status_label(status), 0, count,
                         scale);
    }
  }
  table.print(std::cout);
  std::printf("\n");
}

double status_rate(const stats::Counter<int>& counts, int status) {
  const auto total = counts.total();
  return total == 0 ? 0.0
                    : static_cast<double>(counts.count(status)) /
                          static_cast<double>(total);
}

const char* yes_no(bool b) { return b ? "yes" : "NO"; }

/// The paper's Tables 1-4 next to the measured run, then the analyses the
/// paper proposes on top of them: pairwise diversity metrics, 1oo2/2oo2
/// adjudication against ground truth, the parallel vs serial deployment
/// topologies of its Section V, and the causes of single-tool alerts.
int cmd_tables(const CliOptions& opts) {
  namespace paper = core::paper;
  const auto spec = resolve_spec(opts, "amadeus_like");
  if (!spec) return 1;
  const double scale = spec->scale;
  const auto pool = pair_from(opts.config);
  eval::Scorer scorer(
      {std::string(pool[0]->name()), std::string(pool[1]->name())});
  // Single-tool alerts per tool, by ground-truth actor population.
  std::map<std::uint8_t, std::uint64_t> unique_by_class[2];
  const auto out = eval::run_experiment(
      *spec, pool,
      [&](const httplog::LogRecord& record,
          divscrape::span<const detectors::Verdict> verdicts) {
        scorer.observe(record, verdicts);
        if (verdicts[0].alert != verdicts[1].alert)
          ++unique_by_class[verdicts[0].alert ? 0 : 1][record.actor_class];
      });
  const auto& r = out.results;
  const auto& pair = r.pair(0, 1);
  const auto score = scorer.finish(spec->name, scale);

  std::printf("# %s scale=%.3f seed=%llu: %s records in %.2fs; scaled = "
              "measured / scale\n\n",
              spec->name.c_str(), scale,
              static_cast<unsigned long long>(spec->seed),
              core::with_thousands(out.records).c_str(), out.wall_seconds);

  std::printf("Table 1 - HTTP requests alerted by the two tools\n");
  auto table1 = comparison_table("row");
  add_comparison_row(table1, "Total HTTP requests", paper::kTotalRequests,
                     r.total_requests(), scale);
  add_comparison_row(table1, "alerted by Distil-role (sentinel)",
                     paper::kDistilAlerts, r.alerts(0), scale);
  add_comparison_row(table1, "alerted by Arcane (arcane)",
                     paper::kArcaneAlerts, r.alerts(1), scale);
  table1.print(std::cout);
  std::printf("shape: Distil-role alerts most (paper: yes; measured: %s)\n\n",
              yes_no(r.alerts(0) > r.alerts(1)));

  std::printf("Table 2 - Diversity in the alerting behaviour\n");
  auto table2 = comparison_table("alerted as malicious by");
  add_comparison_row(table2, "Both Distil-role and Arcane", paper::kBoth,
                     pair.both(), scale);
  add_comparison_row(table2, "Neither", paper::kNeither, pair.neither(),
                     scale);
  add_comparison_row(table2, "Arcane only", paper::kArcaneOnly,
                     pair.second_only(), scale);
  add_comparison_row(table2, "Distil-role only", paper::kDistilOnly,
                     pair.first_only(), scale);
  table2.print(std::cout);
  const auto metrics = core::DiversityMetrics::from(pair.counts());
  const auto paper_metrics = core::DiversityMetrics::from(
      {paper::kBoth, paper::kDistilOnly, paper::kArcaneOnly,
       paper::kNeither});
  std::printf("\nPairwise diversity metrics        paper      measured\n");
  std::printf("  Yule Q statistic             %9.4f     %9.4f\n",
              paper_metrics.q_statistic, metrics.q_statistic);
  std::printf("  phi correlation              %9.4f     %9.4f\n",
              paper_metrics.phi, metrics.phi);
  std::printf("  disagreement                 %9.4f     %9.4f\n",
              paper_metrics.disagreement, metrics.disagreement);
  std::printf("  Cohen kappa                  %9.4f     %9.4f\n",
              paper_metrics.kappa, metrics.kappa);
  std::printf("  McNemar chi2 (b vs c)        %9.0f     %9.0f\n",
              paper_metrics.mcnemar.statistic, metrics.mcnemar.statistic);
  // The paper has no ground truth, so no double-fault figure of its own.
  std::printf("  double-fault (ground truth)          -     %9.5f\n",
              stats::double_fault(r.fault_pair(0, 1).counts()));
  std::printf(
      "shape: unique-alert asymmetry Distil-only/Arcane-only = %.2f "
      "(paper: %.2f)\n\n",
      pair.second_only() == 0
          ? 0.0
          : static_cast<double>(pair.first_only()) /
                static_cast<double>(pair.second_only()),
      static_cast<double>(paper::kDistilOnly) /
          static_cast<double>(paper::kArcaneOnly));

  std::printf("Table 3 - Alerted requests by HTTP status (overall counts)\n");
  print_status_table("Arcane", paper::table3_arcane(), r.alerted_status(1),
                     scale);
  print_status_table("Distil-role (sentinel)", paper::table3_distil(),
                     r.alerted_status(0), scale);
  const auto arcane_rows = r.alerted_status(1).by_count();
  std::printf("shape: 200 then 302 dominate alerted statuses: %s\n\n",
              yes_no(arcane_rows.size() >= 2 && arcane_rows[0].first == 200 &&
                     arcane_rows[1].first == 302));

  std::printf(
      "Table 4 - Alerted requests by HTTP status, single-tool alerts only\n");
  const auto& arcane_only = r.unique_alert_status(1);
  const auto& distil_only = r.unique_alert_status(0);
  print_status_table("Arcane only", paper::table4_arcane_only(), arcane_only,
                     scale);
  print_status_table("Distil-role only", paper::table4_distil_only(),
                     distil_only, scale);
  std::printf("shape checks:\n");
  std::printf("  Arcane-only 400-rate > Distil-only 400-rate: %s\n",
              yes_no(status_rate(arcane_only, 400) >
                     status_rate(distil_only, 400)));
  std::printf("  Arcane-only 204-rate > Distil-only 204-rate: %s\n",
              yes_no(status_rate(arcane_only, 204) >
                     status_rate(distil_only, 204)));
  std::printf("  Distil-only dominated by 200s (>90%%): %s\n\n",
              yes_no(status_rate(distil_only, 200) > 0.9));

  std::printf("Adjudication against ground truth (Wilson 95%% intervals)\n");
  const auto print_confusion = [](const char* name,
                                   const core::ConfusionMatrix& cm) {
    const auto sens = cm.sensitivity_ci();
    const auto spec_ci = cm.specificity_ci();
    std::printf(
        "  %-22s sens %.4f [%.4f, %.4f]   spec %.4f [%.4f, %.4f]   "
        "FP %8llu  FN %8llu\n",
        name, sens.point, sens.lo, sens.hi, spec_ci.point, spec_ci.lo,
        spec_ci.hi, static_cast<unsigned long long>(cm.fp),
        static_cast<unsigned long long>(cm.fn));
  };
  const auto& one_of_two = r.k_of_n_confusion(1);
  const auto& two_of_two = r.k_of_n_confusion(2);
  print_confusion("sentinel (Distil role)", r.confusion(0));
  print_confusion("arcane", r.confusion(1));
  print_confusion("1oo2 (either alerts)", one_of_two);
  print_confusion("2oo2 (both must alert)", two_of_two);
  const double best_sens =
      std::max(r.confusion(0).sensitivity(), r.confusion(1).sensitivity());
  std::printf("shape: 1oo2 sensitivity >= max(individual): %s\n",
              yes_no(one_of_two.sensitivity() >= best_sens));
  std::printf("shape: 2oo2 specificity >= max(individual): %s\n",
              yes_no(two_of_two.specificity() >=
                     std::max(r.confusion(0).specificity(),
                              r.confusion(1).specificity())));
  std::printf(
      "diversity buys %.2f points of sensitivity via 1oo2 at a cost of %llu "
      "false positives over 2oo2\n\n",
      100.0 * (one_of_two.sensitivity() - best_sens),
      static_cast<unsigned long long>(one_of_two.fp - two_of_two.fp));

  // Paper §V. In parallel both tools see every request, so 1oo2/2oo2 are
  // the joiner's k-of-n rows above. In serial the second tool sees only
  // what the first let through and its state evolves from that censored
  // stream, so both orders are executed: one more pass, each cascade with
  // its own detector pair.
  auto forward = pair_from(opts.config);
  auto reverse = pair_from(opts.config);
  std::vector<std::unique_ptr<detectors::Detector>> cascades;
  cascades.push_back(std::make_unique<core::SerialDeployment>(
      std::move(forward[0]), std::move(forward[1])));
  cascades.push_back(std::make_unique<core::SerialDeployment>(
      std::move(reverse[1]), std::move(reverse[0])));
  const auto serial = eval::run_experiment(*spec, cascades);
  std::printf("Deployment topology (paper §V)\n");
  std::printf("  %-28s %10s %10s %12s %14s\n", "topology", "sens", "spec",
              "alerts", "2nd-stage load");
  const auto print_topology = [](const std::string& name,
                                 const core::ConfusionMatrix& cm,
                                 double load) {
    std::printf("  %-28s %10.4f %10.4f %12s %13.1f%%\n", name.c_str(),
                cm.sensitivity(), cm.specificity(),
                core::with_thousands(cm.tp + cm.fp).c_str(), 100.0 * load);
  };
  const std::string pair_names = r.names()[0] + "," + r.names()[1];
  print_topology("1oo2(" + pair_names + ")", one_of_two, 1.0);
  print_topology("2oo2(" + pair_names + ")", two_of_two, 1.0);
  for (std::size_t i = 0; i < cascades.size(); ++i) {
    const auto& cascade =
        static_cast<const core::SerialDeployment&>(*cascades[i]);
    print_topology(std::string(cascade.name()), serial.results.confusion(i),
                   serial.records == 0
                       ? 0.0
                       : static_cast<double>(cascade.analyzer_load()) /
                             static_cast<double>(serial.records));
  }
  std::printf("\n");

  std::printf("Unique-alert causes\n");
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
    for (const auto& [actor_class, count] : unique_by_class[d]) {
      std::printf(
          "    %-20s %10s\n",
          std::string(traffic::to_string(
                          static_cast<traffic::ActorClass>(actor_class)))
              .c_str(),
          core::with_thousands(count).c_str());
    }
    std::printf("  attacking actors this tool alone detected: %llu\n",
                static_cast<unsigned long long>(
                    score.columns[d].actors_unique));
  }
  return 0;
}

int cmd_export(const CliOptions& opts) {
  const auto spec = resolve_spec(opts, "amadeus_like");
  if (!spec) return 1;
  const auto pool = pair_from(opts.config);
  const auto out = eval::run_experiment(*spec, pool);
  std::cout << core::to_json(out.results) << '\n';
  if (!opts.csv_prefix.empty()) {
    {
      std::ofstream f(opts.csv_prefix + "_totals.csv");
      core::export_totals_csv(out.results, f);
    }
    {
      std::ofstream f(opts.csv_prefix + "_pairs.csv");
      core::export_pairs_csv(out.results, f);
    }
    {
      std::ofstream f(opts.csv_prefix + "_status.csv");
      core::export_status_csv(out.results, f);
    }
    std::fprintf(stderr, "wrote %s_{totals,pairs,status}.csv\n",
                 opts.csv_prefix.c_str());
  }
  return 0;
}

int cmd_label(const CliOptions& opts) {
  if (opts.input.empty()) {
    std::fprintf(stderr, "label: missing <log> path\n");
    return 2;
  }
  std::ifstream in(opts.input);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opts.input.c_str());
    return 1;
  }
  // The framer every ingest path shares; records arrive in log order.
  std::vector<httplog::LogRecord> records;
  pipeline::LineDecoder decoder(
      [&records](pipeline::RecordBatch&& batch) {
        for (auto& record : batch) records.push_back(std::move(record));
      },
      1024);
  decoder.feed_stream(in);
  core::HeuristicLabeler labeler;
  const auto result = labeler.label(records);
  std::fprintf(stderr,
               "labelled %llu records: %llu malicious, %llu benign, %llu "
               "unknown (coverage %.1f%%)\n",
               static_cast<unsigned long long>(result.records),
               static_cast<unsigned long long>(result.labeled_malicious),
               static_cast<unsigned long long>(result.labeled_benign),
               static_cast<unsigned long long>(result.left_unknown),
               result.coverage() * 100.0);
  // Emit "<truth>\t<clf line>" so downstream tooling can join.
  for (const auto& record : records) {
    std::cout << to_string(record.truth) << '\t'
              << httplog::format_clf(record) << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) return usage();
  if (opts.command != "tail" && opts.inputs.size() > 1) {
    // Only tail fans out over many logs; a stray extra positional on the
    // single-input commands is almost certainly a mistyped flag.
    std::fprintf(stderr, "%s: takes at most one positional argument\n",
                 opts.command.c_str());
    return usage();
  }
  if (!config_keys_supported(opts) || !scale_supported(opts)) return 2;
  if (opts.command == "simulate") return cmd_simulate(opts);
  if (opts.command == "analyze") return cmd_analyze(opts);
  if (opts.command == "tail") return cmd_tail(opts);
  if (opts.command == "tables") return cmd_tables(opts);
  if (opts.command == "export") return cmd_export(opts);
  if (opts.command == "label") return cmd_label(opts);
  if (opts.command == "soak") return cmd_soak(opts);
  if (opts.command == "score") return cmd_score(opts);
  return usage();
}
