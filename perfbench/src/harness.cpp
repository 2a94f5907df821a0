// perfbench_harness: runs one benchmark workload against divscrape's public
// pipeline seams and prints its metrics as the last line of stdout.
//
//   perfbench_harness --workload <replay_paper|catchup_megasite|live_tail>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --work-dir <dir> [--trace-out <file>]
//                     [--commit <id>] [--source-digest <hex>]
//
// Every run passes an identity and exactly-once gate before it reports a
// number; on any mismatch it exits 3 and prints no result. See
// perfbench/README.md for the workloads, metrics and the layer map.
#include <sys/prctl.h>
#include <sys/stat.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/joiner.hpp"
#include "detectors/detector.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/record_batch.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tailer.hpp"
#include "trace.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

namespace pb = perfbench;
namespace pl = divscrape::pipeline;
using divscrape::httplog::LogRecord;

// ---------------------------------------------------------------------------
// Fixed workload parameters (part of the benchmark definition).
// ---------------------------------------------------------------------------

constexpr std::size_t kBatchRecords = 1024;  ///< every batch seam's capacity
constexpr std::size_t kShards = 2;
constexpr std::size_t kDispatchers = 1;
constexpr std::size_t kMaxBacklog = 16 * 1024;  ///< the CLI's default
/// Persist / checkpoint cadence in parsed records: `tail --flush-every`'s
/// default.
constexpr std::uint64_t kPersistEvery = 100'000;
/// Inputs are cut at a fixed record count (every seed generates a little
/// more), so runs on different seeds measure equally long streams.
constexpr std::uint64_t kAmadeusRecords = 1'400'000;
constexpr double kMegasiteScale = 0.1;
constexpr std::uint64_t kMegasiteRecords = 1'600'000;
/// live_tail's offered load (records/s), about a quarter of replay_paper's
/// sequential capacity on the 4-CPU reference host.
constexpr double kLiveRate = 200'000.0;
constexpr std::int64_t kBurstNs = 1'000'000;  ///< writer bursts every 1 ms
/// Latency percentiles are taken per window of this many records (10 ms of
/// schedule, 20 samples beyond the p99) and reported as the median over
/// windows: short windows keep host preemption and checkpoint stalls, which
/// each cover a few windows, from deciding the figure.
constexpr std::size_t kLatencyWindow = 2'000;
/// Set-ups timed before every pass, so setup_s samples the whole run.
constexpr int kSetupRepsPerPass = 40;
constexpr std::size_t kReadChunk = 64 * 1024;  ///< ReplayEngine::replay's

enum SpanName : int {
  kRead,
  kDecode,
  kIntern,
  kSentinel,
  kArcane,
  kJoin,
  kPoll,
  kDispatch,
  kFlush,
  kDrain,
  kCheckpointState,
  kCheckpointWrite,
  kFinish,
  kProcess,
  kIdle,
};
const std::vector<std::string> kSpanNames = {
    "read",  "decode",  "intern", "sentinel",         "arcane",
    "join",  "poll",    "dispatch", "flush",          "drain",
    "checkpoint_state", "checkpoint_write", "finish", "process_batch",
    "idle"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void gate_failure(const std::string& what) {
  std::fprintf(stderr, "perfbench: identity/exactly-once gate failed: %s\n",
               what.c_str());
  std::exit(3);
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// Gate accounting and the result document.
// ---------------------------------------------------------------------------

/// Exactly-once tally: every pass adds the records written and charges
/// lost, duplicated and skipped lines as failures.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t written, std::uint64_t parsed,
           std::uint64_t skipped) {
    attempted += written;
    failed += (written > parsed ? written - parsed : parsed - written) +
              skipped;
  }
  void require_clean(const char* where) const {
    if (failed != 0) {
      gate_failure(std::string(where) + ": " + std::to_string(failed) +
                   " records lost, duplicated or skipped of " +
                   std::to_string(attempted));
    }
  }
};

/// Byte identity of one run's JointResults against the reference.
void require_identical(const std::string& reference, const std::string& got,
                       const std::string& what) {
  if (got != reference) gate_failure(what + ": JointResults differ");
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// workload that does not exercise a layer reports 0 for it.
std::vector<Metric> per_layer_template() {
  return {
      {"httplog.decode_ns_per_record", 0, "ns"},
      {"httplog.lines_skipped", 0, "count"},
      {"util.intern_ns_per_record", 0, "ns"},
      {"util.interner_entries", 0, "count"},
      {"detectors.sentinel_ns_per_record", 0, "ns"},
      {"detectors.arcane_ns_per_record", 0, "ns"},
      {"core.join_ns_per_record", 0, "ns"},
      {"pipeline.multitail_poll_ns_per_record", 0, "ns"},
      {"pipeline.dispatch_block_share", 0, "share"},
      {"pipeline.peak_shard_backlog", 0, "count"},
      {"pipeline.late_records", 0, "count"},
      {"pipeline.forced_emits", 0, "count"},
      {"pipeline.drain_ms", 0, "ms"},
      {"pipeline.finish_ms", 0, "ms"},
      {"pipeline.checkpoint_state_ms", 0, "ms"},
      {"pipeline.checkpoint_write_ms", 0, "ms"},
      {"pipeline.checkpoint_bytes", 0, "bytes"},
      {"pipeline.batch_fill", 0, "share"},
      {"pipeline.tail_lag_max_records", 0, "count"},
      {"pipeline.empty_poll_share", 0, "share"},
      {"cost.sequential_records_per_s", 0, "1/s"},
      {"cost.sharded_over_sequential", 0, "x"},
      {"loadgen.late_max_ms", 0, "ms"},
      {"trace.unattributed_share", 0, "share"},
      {"trace.overhead", 0, "share"},
      {"gate.failed_frac", 0, "share"},
      {"latency.samples", 0, "count"},
      {"latency.worst_window_p99_ms", 0, "ms"},
  };
}

class Layers {
 public:
  Layers() : metrics_(per_layer_template()) {}
  void set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// End-to-end figures of one untraced measurement. Throughput and latency
/// percentiles are taken per pass (live_tail: per latency window) and
/// reported as the median.
struct EndToEnd {
  std::vector<double> records_per_s;  ///< one per pass
  std::vector<double> p50_ms;         ///< one per pass or latency window
  std::vector<double> p99_ms;         ///< one per pass or latency window
  std::uint64_t latency_samples = 0;
  double worst_p99_ms = 0.0;  ///< the slowest pass or window's p99
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  Tally tally;

  void add_latency(pb::Samples& pass) {
    p50_ms.push_back(pass.percentile(0.50));
    p99_ms.push_back(pass.percentile(0.99));
    worst_p99_ms = std::max(worst_p99_ms, p99_ms.back());
    latency_samples += pass.count();
  }

  [[nodiscard]] std::vector<Metric> metrics() const {
    return {
        {"records_per_s", pb::median(records_per_s), "1/s"},
        {"latency_p50_ms", pb::median(p50_ms), "ms"},
        {"latency_p99_ms", pb::median(p99_ms), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", pb::median(setup_s), "s"},
    };
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Sequential harness: the detector pair driven one layer at a time per
// batch, so each layer gets its own span. Byte-identical to ReplayEngine's
// stamping + AlertJoiner (the gate checks it): detectors keep independent
// state, so evaluating a batch detector by detector preserves every
// detector's record order.
// ---------------------------------------------------------------------------

class SequentialHarness {
 public:
  explicit SequentialHarness(pb::Tracer& tracer)
      : tracer_(tracer), pool_(pb::make_pool()), results_(names(pool_)) {}

  void process(pl::RecordBatch& batch) {
    const std::size_t n = batch.size();
    {
      pb::Tracer::Scope span(tracer_, kIntern);
      for (LogRecord& record : batch) {
        record.ua_token = interner_.intern(record.user_agent);
      }
    }
    verdicts_.resize(pool_.size());
    for (std::size_t d = 0; d < pool_.size(); ++d) {
      pb::Tracer::Scope span(tracer_, d == 0 ? kSentinel : kArcane);
      auto& out = verdicts_[d];
      out.resize(n);
      for (std::size_t i = 0; i < n; ++i) out[i] = pool_[d]->evaluate(batch[i]);
    }
    {
      pb::Tracer::Scope span(tracer_, kJoin);
      std::vector<divscrape::detectors::Verdict> row(pool_.size());
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < pool_.size(); ++d) row[d] = verdicts_[d][i];
        results_.observe(batch[i], row);
      }
    }
    records_ += n;
    ++batches_;
  }

  [[nodiscard]] const divscrape::core::JointResults& results() const {
    return results_;
  }
  [[nodiscard]] std::size_t interner_entries() const {
    return interner_.size();
  }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t batches() const { return batches_; }

 private:
  static std::vector<std::string> names(
      const std::vector<std::unique_ptr<divscrape::detectors::Detector>>& p) {
    std::vector<std::string> out;
    for (const auto& d : p) out.emplace_back(d->name());
    return out;
  }

  pb::Tracer& tracer_;
  std::vector<std::unique_ptr<divscrape::detectors::Detector>> pool_;
  divscrape::util::StringInterner interner_;
  divscrape::core::JointResults results_;
  std::vector<std::vector<divscrape::detectors::Verdict>> verdicts_;
  std::uint64_t records_ = 0;
  std::uint64_t batches_ = 0;
};

/// Per-name span totals of one tracer plus the caller wall time it covered.
struct Profile {
  std::map<int, pb::SpanTotals> totals;
  double wall_s = 0.0;

  explicit Profile(const pb::Tracer& tracer, double wall)
      : totals(pb::span_totals(tracer.spans())), wall_s(wall) {}

  [[nodiscard]] double self_ns(int name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  }
  [[nodiscard]] double total_ns(int name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns);
  }
  /// Mean inclusive time of one `name` span, in ms.
  [[nodiscard]] double mean_ms(int name) const {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e6 /
                     static_cast<double>(it->second.count);
  }
  [[nodiscard]] double unattributed_share() const {
    double self = 0.0;
    for (const auto& entry : totals) {
      self += static_cast<double>(entry.second.self_ns);
    }
    return wall_s > 0.0 ? (wall_s * 1e9 - self) / (wall_s * 1e9) : 0.0;
  }
};

/// Per-layer figures every workload takes from its untraced measurement.
void set_end_to_end_layers(const EndToEnd& e2e, Layers& layers) {
  layers.set("gate.failed_frac", static_cast<double>(e2e.tally.failed) /
                                     static_cast<double>(e2e.tally.attempted));
  layers.set("latency.samples", static_cast<double>(e2e.latency_samples));
  layers.set("latency.worst_window_p99_ms", e2e.worst_p99_ms);
}

/// Mean cost of one drain, finish and checkpoint (state, then write) span.
void set_persist_layers(const Profile& p, Layers& layers) {
  layers.set("pipeline.drain_ms", p.mean_ms(kDrain));
  layers.set("pipeline.finish_ms", p.mean_ms(kFinish));
  layers.set("pipeline.checkpoint_state_ms", p.mean_ms(kCheckpointState));
  layers.set("pipeline.checkpoint_write_ms", p.mean_ms(kCheckpointWrite));
}

/// Sets the per-record layer costs a sequential harness profile measures.
void set_harness_layers(const Profile& p, double records, Layers& layers) {
  layers.set("util.intern_ns_per_record", p.self_ns(kIntern) / records);
  layers.set("detectors.sentinel_ns_per_record",
             p.self_ns(kSentinel) / records);
  layers.set("detectors.arcane_ns_per_record", p.self_ns(kArcane) / records);
  layers.set("core.join_ns_per_record", p.self_ns(kJoin) / records);
}

// ---------------------------------------------------------------------------
// Byte-stream passes over one CLF file (replay_paper, live_tail checks).
// ---------------------------------------------------------------------------

struct FilePass {
  double seconds = 0.0;
  pl::ReplayStats stats;
  std::string json;
};

/// The `analyze` path: one ReplayEngine replaying the whole file.
FilePass engine_replay(const std::string& path) {
  const auto pool = pb::make_pool();
  pl::ReplayEngine engine(pool);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::int64_t t0 = pb::now_ns();
  FilePass pass;
  pass.stats = engine.replay(in);
  pass.seconds = seconds_between(t0, pb::now_ns());
  pass.json = divscrape::core::to_json(engine.results());
  return pass;
}

/// ReplayEngine::replay's loop rebuilt from LineDecoder batch mode and the
/// sequential harness, with spans around read, decode and each layer.
struct HarnessFilePass {
  FilePass pass;
  std::uint64_t batches = 0;
  std::size_t interner_entries = 0;
};

HarnessFilePass harness_replay(const std::string& path, pb::Tracer& tracer) {
  SequentialHarness harness(tracer);
  pl::BatchPool pool;
  pl::LineDecoder decoder(
      [&](pl::RecordBatch&& batch) {
        harness.process(batch);
        pool.recycle(std::move(batch));
      },
      kBatchRecords, &pool);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<char> buffer(kReadChunk);
  const std::int64_t t0 = pb::now_ns();
  for (;;) {
    std::streamsize got = 0;
    {
      pb::Tracer::Scope span(tracer, kRead);
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      got = in.gcount();
    }
    if (got <= 0) break;
    pb::Tracer::Scope span(tracer, kDecode);
    (void)decoder.feed(
        std::string_view(buffer.data(), static_cast<std::size_t>(got)));
  }
  {
    pb::Tracer::Scope span(tracer, kDecode);
    (void)decoder.finish_stream();
  }
  HarnessFilePass out;
  out.pass.seconds = seconds_between(t0, pb::now_ns());
  out.pass.stats = decoder.stats();
  out.pass.json = divscrape::core::to_json(harness.results());
  out.batches = harness.batches();
  out.interner_entries = harness.interner_entries();
  return out;
}

// ---------------------------------------------------------------------------
// replay_paper
// ---------------------------------------------------------------------------

EndToEnd replay_end_to_end(const pb::GeneratedLogs& logs, double seconds,
                           std::string& reference) {
  const std::string& path = logs.paths.front();
  EndToEnd e2e;
  pb::reset_peak_rss();
  const std::int64_t region = pb::now_ns();
  do {
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      const std::int64_t t0 = pb::now_ns();
      const auto pool = pb::make_pool();
      pl::ReplayEngine engine(pool);
      std::ifstream in(path, std::ios::binary);
      e2e.setup_s.push_back(seconds_between(t0, pb::now_ns()));
    }
    const FilePass pass = engine_replay(path);
    e2e.tally.add(logs.records, pass.stats.parsed, pass.stats.skipped);
    if (reference.empty()) reference = pass.json;
    require_identical(reference, pass.json, "replay_paper pass");
    e2e.records_per_s.push_back(static_cast<double>(pass.stats.parsed) /
                                pass.seconds);
    // The file is complete before the pass starts and verdicts become
    // visible when replay() returns: every record waits the whole pass.
    pb::Samples latency;
    latency.add(pass.seconds * 1e3, pass.stats.parsed);
    e2e.add_latency(latency);
  } while (seconds_between(region, pb::now_ns()) < seconds);
  e2e.peak_rss_mb = pb::peak_rss_mb();
  e2e.tally.require_clean("replay_paper");
  return e2e;
}

void replay_layers(const pb::GeneratedLogs& logs, double seconds,
                   const std::string& reference, const EndToEnd& e2e,
                   Layers& layers, pb::Tracer& tracer) {
  std::vector<double> traced_rps;
  double wall = 0.0;
  std::uint64_t records = 0, batches = 0, skipped = 0;
  std::size_t entries = 0;
  Tally tally;
  const std::int64_t region = pb::now_ns();
  do {
    const HarnessFilePass h = harness_replay(logs.paths.front(), tracer);
    tally.add(logs.records, h.pass.stats.parsed, h.pass.stats.skipped);
    require_identical(reference, h.pass.json, "traced harness vs ReplayEngine");
    traced_rps.push_back(static_cast<double>(h.pass.stats.parsed) /
                         h.pass.seconds);
    wall += h.pass.seconds;
    records += h.pass.stats.parsed;
    skipped += h.pass.stats.skipped;
    batches += h.batches;
    entries = h.interner_entries;
  } while (seconds_between(region, pb::now_ns()) < seconds);
  tally.require_clean("replay_paper traced harness");

  const Profile p(tracer, wall);
  const double n = static_cast<double>(records);
  layers.set("httplog.decode_ns_per_record", p.self_ns(kDecode) / n);
  layers.set("httplog.lines_skipped", static_cast<double>(skipped));
  set_harness_layers(p, n, layers);
  layers.set("util.interner_entries", static_cast<double>(entries));
  layers.set("pipeline.batch_fill",
             n / (static_cast<double>(batches) * kBatchRecords));
  layers.set("cost.sequential_records_per_s", pb::median(e2e.records_per_s));
  layers.set("trace.unattributed_share", p.unattributed_share());
  layers.set("trace.overhead",
             pb::median(e2e.records_per_s) / pb::median(traced_rps) - 1.0);
}

// ---------------------------------------------------------------------------
// catchup_megasite
// ---------------------------------------------------------------------------

/// The catch-up loop of `tail --checkpoint-dir`: poll until caught up,
/// persisting whenever kPersistEvery more records were parsed, and once
/// more at the end.
void catch_up(pl::MultiTailer& tailer, const std::function<void()>& persist,
              pb::Tracer& tracer) {
  std::uint64_t last_persist = 0;
  for (;;) {
    std::size_t consumed = 0;
    {
      pb::Tracer::Scope span(tracer, kPoll);
      consumed = tailer.poll();
    }
    const std::uint64_t parsed = tailer.stats().parsed;
    if (parsed - last_persist >= kPersistEvery) {
      last_persist = parsed;
      persist();
    }
    if (consumed == 0) break;
  }
  persist();
}

struct CatchupPass {
  double seconds = 0.0;
  pl::ReplayStats stats;
  std::string json;
  std::uint64_t late = 0;
  std::uint64_t forced = 0;
  std::uint64_t peak_backlog = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_records = 0;
  std::size_t interner_entries = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// Sequential reference over the same files: MultiTailer batch sink into
/// one consumer, flushing the merge heap at the same cadence as the
/// sharded run (a flush changes emission order, so both must flush at the
/// same points). With `harness` null the consumer is ReplayEngine's batch
/// seam; otherwise the traced sequential harness.
CatchupPass sequential_catch_up(const std::vector<std::string>& paths,
                                pb::Tracer& tracer,
                                SequentialHarness* harness) {
  const auto pool = pb::make_pool();
  pl::ReplayEngine engine(pool);
  pl::BatchPool batches;
  pl::MultiTailer tailer(
      paths,
      pl::MultiTailer::BatchSink([&](pl::RecordBatch&& batch) {
        if (harness != nullptr) {
          harness->process(batch);
        } else {
          engine.process_batch(batch);
        }
        batches.recycle(std::move(batch));
      }),
      kBatchRecords, pl::MultiTailConfig(), &batches);
  const std::int64_t t0 = pb::now_ns();
  catch_up(
      tailer,
      [&] {
        pb::Tracer::Scope span(tracer, kFlush);
        (void)tailer.flush();
      },
      tracer);
  CatchupPass out;
  out.seconds = seconds_between(t0, pb::now_ns());
  out.stats = tailer.stats();
  out.json = divscrape::core::to_json(harness != nullptr ? harness->results()
                                                         : engine.results());
  return out;
}

/// One `tail --checkpoint-dir <d> --shards 2` catch-up: MultiTailer batch
/// sink -> caller-side UA interning -> ShardedPipeline, persisting per-log
/// checkpoints and the session state file at the cadence. `latency`
/// receives, per persist, the records it made durable and how long after
/// the pass start that happened.
CatchupPass sharded_catch_up(const std::vector<std::string>& paths,
                             const std::string& checkpoint_dir,
                             pb::Tracer& tracer, pb::Samples* latency) {
  CatchupPass out;
  divscrape::util::StringInterner ua_tokens;
  pl::ShardedPipeline sharded([] { return pb::make_pool(); }, kShards,
                              kBatchRecords, kMaxBacklog, kDispatchers);
  pl::MultiTailer tailer(
      paths,
      pl::MultiTailer::BatchSink([&](pl::RecordBatch&& batch) {
        {
          pb::Tracer::Scope span(tracer, kIntern);
          for (LogRecord& record : batch) {
            record.ua_token = ua_tokens.intern(record.user_agent);
          }
        }
        ++out.batches;
        out.batch_records += batch.size();
        pb::Tracer::Scope span(tracer, kDispatch);
        sharded.process_batch(std::move(batch));
      }),
      kBatchRecords, pl::MultiTailConfig(), &sharded.batch_pool());
  std::vector<std::string> checkpoint_paths;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    checkpoint_paths.push_back(checkpoint_dir + "/log" + std::to_string(i) +
                               ".cp.json");
  }
  const std::string session_path = checkpoint_dir + "/tail_session.state.json";

  const std::int64_t t0 = pb::now_ns();
  std::uint64_t durable = 0;
  const auto persist = [&] {
    {
      pb::Tracer::Scope span(tracer, kFlush);
      (void)tailer.flush();
    }
    {
      pb::Tracer::Scope span(tracer, kDrain);
      sharded.drain();
    }
    // Blob layout of the CLI's sharded session: mode byte 1, the dispatch
    // interner, then every shard's joiner.
    divscrape::util::StateWriter w;
    bool have_state = false;
    {
      pb::Tracer::Scope span(tracer, kCheckpointState);
      w.u8(1);
      ua_tokens.save_state(w);
      have_state = sharded.save_state(w);
    }
    {
      pb::Tracer::Scope span(tracer, kCheckpointWrite);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!tailer.checkpoint(i).save(checkpoint_paths[i])) {
          throw std::runtime_error("cannot save " + checkpoint_paths[i]);
        }
      }
      if (!have_state) throw std::runtime_error("pool state not serializable");
      pl::TailSessionState session;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
      }
      session.state = w.take();
      if (!session.save(session_path)) {
        throw std::runtime_error("cannot save " + session_path);
      }
    }
    const std::uint64_t parsed = tailer.stats().parsed;
    if (latency != nullptr && parsed > durable) {
      latency->add(static_cast<double>(pb::now_ns() - t0) / 1e6,
                   parsed - durable);
      durable = parsed;
    }
  };
  catch_up(tailer, persist, tracer);
  divscrape::core::JointResults results = [&] {
    pb::Tracer::Scope span(tracer, kFinish);
    return sharded.finish();
  }();
  const std::int64_t t_end = pb::now_ns();
  out.seconds = seconds_between(t0, t_end);
  out.stats = tailer.stats();
  out.json = divscrape::core::to_json(results);
  out.late = tailer.late_records();
  out.forced = tailer.forced_emits();
  out.peak_backlog = sharded.peak_shard_backlog();
  out.interner_entries = ua_tokens.size();
  out.checkpoint_bytes = pb::file_size(session_path);
  if (latency != nullptr && out.stats.parsed > durable) {
    latency->add(static_cast<double>(t_end - t0) / 1e6,
                 out.stats.parsed - durable);
  }
  return out;
}

struct CatchupRun {
  EndToEnd e2e;
  std::vector<CatchupPass> passes;
};

CatchupRun catchup_sharded_passes(const pb::GeneratedLogs& logs,
                                  const std::string& checkpoint_dir,
                                  double seconds, const std::string& reference,
                                  pb::Tracer& tracer, bool measure_setup) {
  CatchupRun run;
  pb::reset_peak_rss();
  const std::int64_t region = pb::now_ns();
  do {
    for (int rep = 0; measure_setup && rep < kSetupRepsPerPass; ++rep) {
      const std::int64_t t0 = pb::now_ns();
      pl::ShardedPipeline sharded([] { return pb::make_pool(); }, kShards,
                                  kBatchRecords, kMaxBacklog, kDispatchers);
      pl::MultiTailer tailer(
          logs.paths,
          pl::MultiTailer::BatchSink([&](pl::RecordBatch&& batch) {
            sharded.process_batch(std::move(batch));
          }),
          kBatchRecords, pl::MultiTailConfig(), &sharded.batch_pool());
      run.e2e.setup_s.push_back(seconds_between(t0, pb::now_ns()));
      (void)sharded.finish();
    }
    pb::Samples latency;
    CatchupPass pass =
        sharded_catch_up(logs.paths, checkpoint_dir, tracer, &latency);
    run.e2e.add_latency(latency);
    run.e2e.tally.add(logs.records, pass.stats.parsed, pass.stats.skipped);
    require_identical(reference, pass.json,
                      "catchup_megasite sharded vs sequential");
    run.e2e.records_per_s.push_back(static_cast<double>(pass.stats.parsed) /
                                    pass.seconds);
    run.passes.push_back(std::move(pass));
  } while (seconds_between(region, pb::now_ns()) < seconds);
  run.e2e.peak_rss_mb = pb::peak_rss_mb();
  run.e2e.tally.require_clean("catchup_megasite");
  return run;
}

/// Decode-only pass over each file (LineDecoder batch mode, nothing
/// downstream): decode cost on the megasite bytes, which MultiTailer::poll
/// otherwise folds into its own self time.
std::uint64_t decode_only(const std::vector<std::string>& paths,
                          pb::Tracer& tracer) {
  std::uint64_t records = 0;
  std::vector<char> buffer(kReadChunk);
  for (const std::string& path : paths) {
    pl::BatchPool pool;
    pl::LineDecoder decoder(
        [&](pl::RecordBatch&& batch) { pool.recycle(std::move(batch)); },
        kBatchRecords, &pool);
    std::ifstream in(path, std::ios::binary);
    for (;;) {
      std::streamsize got = 0;
      {
        pb::Tracer::Scope span(tracer, kRead);
        in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        got = in.gcount();
      }
      if (got <= 0) break;
      pb::Tracer::Scope span(tracer, kDecode);
      (void)decoder.feed(
          std::string_view(buffer.data(), static_cast<std::size_t>(got)));
    }
    pb::Tracer::Scope span(tracer, kDecode);
    (void)decoder.finish_stream();
    records += decoder.stats().parsed;
  }
  return records;
}

// ---------------------------------------------------------------------------
// live_tail
// ---------------------------------------------------------------------------

/// The live reader naps for short, exact intervals; the default 50 us
/// timer slack would add its own jitter to every latency.
void set_precise_sleeps() {
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

/// Open-loop load generator: appends the pre-formatted source log to the
/// live log on a fixed schedule (record i due at start + i / rate), in
/// bursts every kBurstNs that end mid-line. It never waits for the reader;
/// lateness against its own schedule is recorded.
class LoadWriter {
 public:
  LoadWriter(std::string source, std::string log,
             const std::vector<std::uint64_t>& line_ends,
             std::int64_t start_ns, double rate)
      : source_(std::move(source)),
        log_(std::move(log)),
        line_ends_(line_ends),
        start_ns_(start_ns),
        interval_ns_(1e9 / rate) {
    thread_ = std::thread([this] { run(); });
  }
  ~LoadWriter() { join(); }
  LoadWriter(const LoadWriter&) = delete;
  LoadWriter& operator=(const LoadWriter&) = delete;

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  /// Records whose whole line has been written.
  [[nodiscard]] std::uint64_t complete() const {
    return complete_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool done() const {
    return done_.load(std::memory_order_acquire);
  }
  /// Valid after join().
  [[nodiscard]] double late_max_ms() const {
    return static_cast<double>(late_max_ns_) / 1e6;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void run() {
    try {
      write_schedule();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    done_.store(true, std::memory_order_release);
  }

  void write_schedule() {
    using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;
    File src(std::fopen(source_.c_str(), "rb"), &std::fclose);
    File dst(std::fopen(log_.c_str(), "wb"), &std::fclose);
    if (!src || !dst) throw std::runtime_error("cannot open live log files");
    std::vector<char> buffer(1 << 20);
    const std::uint64_t n = line_ends_.size();
    if (n == 0) return;
    std::uint64_t written = 0;
    for (std::int64_t burst = 0;; ++burst) {
      const std::int64_t due_ns = start_ns_ + burst * kBurstNs;
      // Spin to the due time: waking from a sleep can be several ms late
      // on a shared host, and a late writer would charge its own lateness
      // to the reader's latency.
      while (pb::now_ns() < due_ns) {
      }
      late_max_ns_ = std::max(late_max_ns_, pb::now_ns() - due_ns);
      const auto due = std::min<std::uint64_t>(
          n, static_cast<std::uint64_t>(
                 std::floor(static_cast<double>(burst * kBurstNs) /
                            interval_ns_)) +
                 1);
      std::uint64_t target = line_ends_[due - 1];
      if (due < n) target += (line_ends_[due] - line_ends_[due - 1]) / 2;
      while (written < target) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(buffer.size(), target - written));
        const std::size_t got = std::fread(buffer.data(), 1, want, src.get());
        if (got == 0) throw std::runtime_error("short read of live source");
        if (std::fwrite(buffer.data(), 1, got, dst.get()) != got ||
            std::fflush(dst.get()) != 0) {
          throw std::runtime_error("cannot append to live log");
        }
        written += got;
      }
      complete_.store(due, std::memory_order_release);
      if (due == n) break;
    }
    if (std::fclose(dst.release()) != 0) {
      throw std::runtime_error("cannot close live log");
    }
  }

  std::string source_;
  std::string log_;
  const std::vector<std::uint64_t>& line_ends_;
  std::int64_t start_ns_;
  double interval_ns_;
  std::atomic<std::uint64_t> complete_{0};
  std::atomic<bool> done_{false};
  std::int64_t late_max_ns_ = 0;
  std::string error_;
  std::thread thread_;  ///< last: starts after every member it uses
};

struct LiveRun {
  std::vector<pb::Ingest> polls;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t parsed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t total_polls = 0;
  std::uint64_t lag_max = 0;
  double late_max_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t batches = 0;
  std::string json;
  double wall_s = 0.0;
  std::int64_t loop_start_ns = 0;  ///< reader loop bounds, for the profile
  std::int64_t loop_end_ns = 0;
  double peak_rss_mb = 0.0;
};

/// One live run: the writer thread feeds the growing log; this thread runs
/// the default `divscrape tail <log> --checkpoint <cp>` loop. Untraced, the
/// tailer attaches to ReplayEngine's own decoder; traced, to an equivalent
/// LineDecoder in batch mode whose batches go through the engine's batch
/// seam, so decode and dispatch get separate spans.
LiveRun live_tail_run(const pb::GeneratedLogs& source,
                      const std::string& log_path,
                      const std::string& checkpoint_path, pb::Tracer& tracer) {
  const bool traced = tracer.enabled();
  ::unlink(log_path.c_str());
  const auto pool = pb::make_pool();
  pl::ReplayEngine engine(pool);
  pl::BatchPool batches;
  LiveRun run;
  std::optional<pl::LineDecoder> decoder;
  if (traced) {
    decoder.emplace(
        [&](pl::RecordBatch&& batch) {
          {
            pb::Tracer::Scope span(tracer, kProcess);
            engine.process_batch(batch);
          }
          ++run.batches;
          batches.recycle(std::move(batch));
        },
        kBatchRecords, &batches);
  }
  std::optional<pl::LogTailer> tailer;
  if (traced) {
    tailer.emplace(log_path, *decoder);
  } else {
    tailer.emplace(log_path, engine);
  }
  const pl::LineDecoder& stats_source = traced ? *decoder : engine.decoder();
  const std::uint64_t n = source.records;
  // Touch the poll log before the memory high-water mark is reset, so the
  // benchmark's own bookkeeping does not vary peak_rss_mb.
  run.polls.resize(1 << 16);
  run.polls.clear();
  pb::reset_peak_rss();

  set_precise_sleeps();
  run.start_ns = pb::now_ns() + 20'000'000;
  run.loop_start_ns = pb::now_ns();
  LoadWriter writer(source.paths.front(), log_path, source.line_ends,
                    run.start_ns, kLiveRate);
  std::uint64_t last_checkpoint = 0;
  std::int64_t idle_since = 0;  ///< start of the current caught-up stretch
  for (;;) {
    const std::uint64_t before = stats_source.stats().parsed;
    const std::uint64_t written = writer.complete();
    if (written > before) run.lag_max = std::max(run.lag_max, written - before);
    std::size_t consumed = 0;
    const std::int64_t poll_start = pb::now_ns();
    {
      pb::Tracer::Scope span(tracer, kPoll);
      consumed = tailer->poll();
      // A caught-up stretch (empty polls and yields) becomes one idle
      // span instead of millions of tiny ones.
      if (consumed == 0) span.discard();
    }
    const std::int64_t t = pb::now_ns();
    if (consumed == 0) {
      if (idle_since == 0) idle_since = poll_start;
    } else if (idle_since != 0) {
      tracer.record(kIdle, idle_since, poll_start);
      idle_since = 0;
    }
    const std::uint64_t parsed = stats_source.stats().parsed;
    ++run.total_polls;
    if (parsed > before) {
      run.polls.push_back(pb::Ingest{t, parsed});
    } else {
      ++run.empty_polls;
    }
    if (parsed - last_checkpoint >= kPersistEvery) {
      last_checkpoint = parsed;
      pl::Checkpoint cp;
      {
        pb::Tracer::Scope span(tracer, kCheckpointState);
        cp = tailer->checkpoint();
        divscrape::util::StateWriter w;
        if (!engine.save_state(w)) {
          throw std::runtime_error("pool state not serializable");
        }
        cp.state = w.take();
      }
      {
        pb::Tracer::Scope span(tracer, kCheckpointWrite);
        if (!cp.save(checkpoint_path)) {
          throw std::runtime_error("cannot save " + checkpoint_path);
        }
      }
    }
    if (parsed >= n) break;
    if (consumed == 0) {
      // Caught up. Give up only when the writer has finished and nothing
      // new arrived for a long while (the gate then reports the loss).
      if (writer.done() && t - idle_since > 2'000'000'000) break;
      std::this_thread::yield();
    }
  }
  run.loop_end_ns = pb::now_ns();
  if (idle_since != 0) tracer.record(kIdle, idle_since, run.loop_end_ns);
  run.peak_rss_mb = pb::peak_rss_mb();
  writer.join();
  if (!writer.error().empty()) throw std::runtime_error(writer.error());
  run.end_ns = run.polls.empty() ? pb::now_ns() : run.polls.back().done_ns;
  run.wall_s = seconds_between(run.start_ns, run.end_ns);
  run.parsed = stats_source.stats().parsed;
  run.skipped = stats_source.stats().skipped;
  run.late_max_ms = writer.late_max_ms();
  run.checkpoint_bytes = pb::file_size(checkpoint_path);
  run.json = divscrape::core::to_json(engine.results());
  return run;
}

struct LiveMeasurement {
  EndToEnd e2e;
  LiveRun run;
  FilePass batch;  ///< batch replay of the finished log
};

LiveMeasurement live_measure(const pb::GeneratedLogs& source,
                             const std::string& work_dir, double seconds,
                             pb::Tracer& tracer, bool measure_setup) {
  const std::string log_path = work_dir + "/live_access.log";
  const std::string cp_path = work_dir + "/live.cp.json";
  LiveMeasurement m;
  // Whole schedules back to back until `seconds` have passed; latency
  // windows pool across them.
  const std::int64_t region = pb::now_ns();
  do {
    if (measure_setup) {
      // Set-up ends when the tailer has opened the (still empty) log.
      std::FILE* empty = std::fopen(log_path.c_str(), "w");
      if (empty == nullptr) throw std::runtime_error("cannot create log");
      std::fclose(empty);
      for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
        const std::int64_t t0 = pb::now_ns();
        const auto pool = pb::make_pool();
        pl::ReplayEngine engine(pool);
        pl::LogTailer tailer(log_path, engine);
        (void)tailer.poll();
        m.e2e.setup_s.push_back(seconds_between(t0, pb::now_ns()));
      }
    }
    m.run = live_tail_run(source, log_path, cp_path, tracer);
    m.e2e.peak_rss_mb = std::max(m.e2e.peak_rss_mb, m.run.peak_rss_mb);
    m.e2e.tally.add(source.records, m.run.parsed, m.run.skipped);
    m.e2e.tally.require_clean("live_tail");
    m.batch = engine_replay(log_path);
    require_identical(m.batch.json, m.run.json,
                      "live_tail vs batch replay of the finished log");
    m.e2e.records_per_s.push_back(static_cast<double>(m.run.parsed) /
                                  m.run.wall_s);
    const std::vector<double> latencies =
        pb::open_loop_latencies(m.run.polls, m.run.start_ns, 1e9 / kLiveRate);
    for (pb::Samples& window : pb::windows_of(latencies, kLatencyWindow)) {
      m.e2e.add_latency(window);
    }
  } while (seconds_between(region, pb::now_ns()) < seconds);
  return m;
}

// ---------------------------------------------------------------------------
// Entry point: argument parsing, provenance and the three workloads
// ---------------------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Provenance line: what was measured, on what, and the per-pass figures
/// behind each median.
void print_provenance(const Options& opts, const pb::GeneratedLogs& logs,
                      int threads, const EndToEnd& e2e) {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"records\": %" PRIu64 ", \"bytes\": %" PRIu64
      ", \"digest\": \"%s\", \"files\": %zu, \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"threads\": %d, \"trace\": %d, "
      "\"latency_samples\": %" PRIu64 ", \"records_per_s_passes\": %s, "
      "\"latency_p50_ms_windows\": %s, \"latency_p99_ms_windows\": %s, "
      "\"setup_reps\": %zu}\n",
      opts.workload.c_str(), opts.seed, logs.records, logs.bytes,
      hex64(logs.digest).c_str(), logs.paths.size(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      json_escape(__VERSION__).c_str(), json_escape(opts.commit).c_str(),
      json_escape(opts.source_digest).c_str(), threads, opts.trace ? 1 : 0,
      e2e.latency_samples, json_list(e2e.records_per_s).c_str(),
      json_list(e2e.p50_ms).c_str(), json_list(e2e.p99_ms).c_str(),
      e2e.setup_s.size());
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else if (key == "--trace-out") {
      opts.trace_out = value;
    } else if (key == "--commit") {
      opts.commit = value;
    } else if (key == "--source-digest") {
      opts.source_digest = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || opts.work_dir.empty() || !(opts.seconds > 0.0)) {
    return std::nullopt;
  }
  return opts;
}

void maybe_write_trace(
    const Options& opts,
    const std::vector<std::pair<std::string, const pb::Tracer*>>& phases) {
  if (opts.trace_out.empty()) return;
  if (!pb::write_chrome_trace(opts.trace_out, kSpanNames, phases)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opts.trace_out.c_str());
  }
}

int run_replay_paper(const Options& opts) {
  pb::GenerateRequest request;
  request.scenario = "amadeus_like";
  request.seed = opts.seed;
  request.dir = opts.work_dir;
  request.max_records = kAmadeusRecords;
  const pb::GeneratedLogs logs = pb::generate_logs(request);

  std::string reference;
  EndToEnd e2e = replay_end_to_end(logs, opts.seconds, reference);
  if (!opts.trace) {
    print_provenance(opts, logs, 1, e2e);
    print_result(e2e.tally, e2e.metrics());
    return 0;
  }
  Layers layers;
  pb::Tracer tracer(true);
  replay_layers(logs, opts.seconds, reference, e2e, layers, tracer);
  set_end_to_end_layers(e2e, layers);
  maybe_write_trace(opts, {{"replay_paper harness", &tracer}});
  print_provenance(opts, logs, 1, e2e);
  print_result(e2e.tally, layers.metrics());
  return 0;
}

int run_catchup_megasite(const Options& opts) {
  pb::GenerateRequest request;
  request.scenario = "megasite";
  request.scale = kMegasiteScale;
  request.max_records = kMegasiteRecords;
  request.seed = opts.seed;
  request.dir = opts.work_dir;
  request.per_vhost = true;
  const pb::GeneratedLogs logs = pb::generate_logs(request);
  const std::string checkpoint_dir = opts.work_dir + "/checkpoints";
  if (::mkdir(checkpoint_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + checkpoint_dir);
  }

  pb::Tracer off(false);
  const CatchupPass sequential = sequential_catch_up(logs.paths, off, nullptr);
  Tally reference_tally;
  reference_tally.add(logs.records, sequential.stats.parsed,
                      sequential.stats.skipped);
  reference_tally.require_clean("catchup_megasite sequential reference");

  CatchupRun run = catchup_sharded_passes(logs, checkpoint_dir, opts.seconds,
                                          sequential.json, off, true);
  if (!opts.trace) {
    print_provenance(opts, logs, 4, run.e2e);
    print_result(run.e2e.tally, run.e2e.metrics());
    return 0;
  }

  Layers layers;
  pb::Tracer decode_tracer(true);
  const std::int64_t d0 = pb::now_ns();
  const std::uint64_t decoded = decode_only(logs.paths, decode_tracer);
  const Profile decode_profile(decode_tracer,
                               seconds_between(d0, pb::now_ns()));
  if (decoded != logs.records) gate_failure("decode-only pass lost records");
  layers.set("httplog.decode_ns_per_record",
             decode_profile.self_ns(kDecode) / static_cast<double>(decoded));

  pb::Tracer harness_tracer(true);
  SequentialHarness harness(harness_tracer);
  const CatchupPass traced_sequential =
      sequential_catch_up(logs.paths, harness_tracer, &harness);
  require_identical(sequential.json, traced_sequential.json,
                    "traced harness vs sequential ReplayEngine");
  set_harness_layers(Profile(harness_tracer, traced_sequential.seconds),
                     static_cast<double>(harness.records()), layers);

  pb::Tracer tracer(true);
  CatchupRun traced = catchup_sharded_passes(
      logs, checkpoint_dir, opts.seconds, sequential.json, tracer, false);
  double wall = 0.0, records = 0.0, batches = 0.0, batch_records = 0.0;
  std::uint64_t peak_backlog = 0;
  for (const CatchupPass& pass : traced.passes) {
    wall += pass.seconds;
    records += static_cast<double>(pass.stats.parsed);
    batches += static_cast<double>(pass.batches);
    batch_records += static_cast<double>(pass.batch_records);
    peak_backlog = std::max(peak_backlog, pass.peak_backlog);
  }
  const CatchupPass& last = traced.passes.back();
  const Profile p(tracer, wall);
  layers.set("httplog.lines_skipped", static_cast<double>(last.stats.skipped));
  layers.set("util.intern_ns_per_record", p.self_ns(kIntern) / records);
  layers.set("util.interner_entries",
             static_cast<double>(last.interner_entries));
  layers.set("pipeline.multitail_poll_ns_per_record",
             (p.self_ns(kPoll) + p.self_ns(kFlush)) / records);
  layers.set("pipeline.dispatch_block_share",
             p.total_ns(kDispatch) / (wall * 1e9));
  layers.set("pipeline.peak_shard_backlog", static_cast<double>(peak_backlog));
  layers.set("pipeline.late_records", static_cast<double>(last.late));
  layers.set("pipeline.forced_emits", static_cast<double>(last.forced));
  set_persist_layers(p, layers);
  layers.set("pipeline.checkpoint_bytes",
             static_cast<double>(last.checkpoint_bytes));
  layers.set("pipeline.batch_fill",
             batch_records / (batches * kBatchRecords));
  const double sequential_rps =
      static_cast<double>(sequential.stats.parsed) / sequential.seconds;
  layers.set("cost.sequential_records_per_s", sequential_rps);
  layers.set("cost.sharded_over_sequential",
             pb::median(run.e2e.records_per_s) / sequential_rps);
  layers.set("trace.unattributed_share", p.unattributed_share());
  layers.set("trace.overhead", pb::median(run.e2e.records_per_s) /
                                   pb::median(traced.e2e.records_per_s) -
                                   1.0);
  set_end_to_end_layers(run.e2e, layers);
  maybe_write_trace(opts, {{"catchup sharded caller", &tracer},
                           {"catchup sequential harness", &harness_tracer},
                           {"catchup decode only", &decode_tracer}});
  print_provenance(opts, logs, 4, run.e2e);
  Tally tally = run.e2e.tally;
  tally.attempted += traced.e2e.tally.attempted;
  print_result(tally, layers.metrics());
  return 0;
}

int run_live_tail(const Options& opts) {
  pb::GenerateRequest request;
  request.scenario = "amadeus_like";
  request.seed = opts.seed;
  request.dir = opts.work_dir;
  request.max_records = kAmadeusRecords;
  request.keep_line_ends = true;
  const pb::GeneratedLogs source = pb::generate_logs(request);

  pb::Tracer off(false);
  LiveMeasurement m =
      live_measure(source, opts.work_dir, opts.seconds, off, true);
  if (!opts.trace) {
    print_provenance(opts, source, 2, m.e2e);
    print_result(m.e2e.tally, m.e2e.metrics());
    return 0;
  }

  Layers layers;
  pb::Tracer tracer(true);
  LiveMeasurement t = live_measure(source, opts.work_dir, 0.0, tracer, false);
  pb::Tracer harness_tracer(true);
  const HarnessFilePass h =
      harness_replay(opts.work_dir + "/live_access.log", harness_tracer);
  require_identical(m.batch.json, h.pass.json,
                    "traced harness vs ReplayEngine on the live log");
  const Profile hp(harness_tracer, h.pass.seconds);
  const double n = static_cast<double>(h.pass.stats.parsed);
  layers.set("httplog.decode_ns_per_record", hp.self_ns(kDecode) / n);
  set_harness_layers(hp, n, layers);
  layers.set("util.interner_entries",
             static_cast<double>(h.interner_entries));

  const LiveRun& r = t.run;
  const Profile p(tracer, seconds_between(r.loop_start_ns, r.loop_end_ns));
  const double records = static_cast<double>(r.parsed);
  layers.set("httplog.lines_skipped", static_cast<double>(r.skipped));
  layers.set("pipeline.multitail_poll_ns_per_record",
             p.self_ns(kPoll) / records);
  set_persist_layers(p, layers);
  layers.set("pipeline.checkpoint_bytes",
             static_cast<double>(r.checkpoint_bytes));
  layers.set("pipeline.batch_fill",
             records / (static_cast<double>(r.batches) * kBatchRecords));
  layers.set("pipeline.tail_lag_max_records", static_cast<double>(r.lag_max));
  layers.set("pipeline.empty_poll_share",
             static_cast<double>(r.empty_polls) /
                 static_cast<double>(r.total_polls));
  layers.set("cost.sequential_records_per_s",
             static_cast<double>(m.batch.stats.parsed) / m.batch.seconds);
  layers.set("loadgen.late_max_ms",
             std::max(m.run.late_max_ms, r.late_max_ms));
  layers.set("trace.unattributed_share", p.unattributed_share());
  layers.set("trace.overhead", pb::median(m.e2e.records_per_s) /
                                   pb::median(t.e2e.records_per_s) -
                                   1.0);
  set_end_to_end_layers(m.e2e, layers);
  maybe_write_trace(opts, {{"live_tail reader", &tracer},
                           {"live_tail harness", &harness_tracer}});
  print_provenance(opts, source, 2, m.e2e);
  Tally tally = m.e2e.tally;
  tally.attempted += t.e2e.tally.attempted;
  print_result(tally, layers.metrics());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc's adaptive one makes the resident set
  // depend on allocation history, which would add noise to peak_rss_mb.
  (void)::mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const auto opts = parse_args(argc, argv);
  if (!opts) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--trace-out <file>] [--commit <id>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  try {
    if (opts->workload == "replay_paper") return run_replay_paper(*opts);
    if (opts->workload == "catchup_megasite") {
      return run_catchup_megasite(*opts);
    }
    if (opts->workload == "live_tail") return run_live_tail(*opts);
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opts->workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
