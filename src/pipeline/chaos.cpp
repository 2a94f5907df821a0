#include "pipeline/chaos.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/json.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "httplog/record.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/decoder.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/tail_session.hpp"
#include "stats/rng.hpp"
#include "traffic/stream_writer.hpp"
#include "util/atomic_file.hpp"
#include "util/rss.hpp"
#include "workload/engine.hpp"

namespace divscrape::pipeline {

namespace {

// ---------------------------------------------------------------------------
// Write seam. The soak is single-threaded on the generation/ingest side
// (the engine merge thread calls the sink, and every writer flush happens
// there), so plain file-scope state is enough to arm one fault at a time.
// ---------------------------------------------------------------------------

enum class SeamMode { kClean, kShortWrites, kFailNext };

SeamMode g_seam_mode = SeamMode::kClean;
int g_short_writes_left = 0;

/// StreamWriter write_fn: passes bytes to ::write(2) unless a fault is
/// armed — one ENOSPC failure (kFailNext, self-disarming), or a burst of
/// half-length short writes (kShortWrites) that the writer's retry loop
/// must stitch back together losslessly.
ssize_t chaos_write_fn(int fd, const void* buf, std::size_t count) {
  switch (g_seam_mode) {
    case SeamMode::kFailNext:
      g_seam_mode = SeamMode::kClean;
      errno = ENOSPC;
      return -1;
    case SeamMode::kShortWrites:
      if (g_short_writes_left > 0 && count > 1) {
        if (--g_short_writes_left == 0) g_seam_mode = SeamMode::kClean;
        return ::write(fd, buf, (count + 1) / 2);
      }
      g_seam_mode = SeamMode::kClean;
      break;
    case SeamMode::kClean:
      break;
  }
  return ::write(fd, buf, count);
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

/// Fault kinds cycle in this order over the scripted epochs, so any run
/// with >= 7k epochs exercises every kind k times and any run with >= 21
/// gets at least 3 plain kills and 3 persist-then-kills.
enum class FaultKind {
  kRotate,
  kTruncate,
  kTornWrite,
  kEnospc,
  kShortWriteBurst,
  kKill,
  kPersistThenKill,
};
constexpr int kFaultKinds = 7;
/// Simulated seconds between ingest polls (writers flushed first).
constexpr std::int64_t kPollIntervalS = 2;

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRotate: return "rotate";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kTornWrite: return "torn-write";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kShortWriteBurst: return "short-write-burst";
    case FaultKind::kKill: return "kill";
    case FaultKind::kPersistThenKill: return "persist-then-kill";
  }
  return "?";
}

/// Lazily decodes one shadow log into records, one bounded chunk at a
/// time — the per-file leg of the reference merge. The oracle merges the
/// shadow logs itself instead of through MultiTailer on purpose: a
/// reference that shares the merge under test could not catch its bugs.
class ShadowSource {
 public:
  explicit ShadowSource(const std::string& path)
      : in_(path, std::ios::binary),
        decoder_(
            [this](RecordBatch&& batch) {
              for (auto& record : batch) queue_.push_back(std::move(record));
            },
            kBatchRecords) {}

  bool next(httplog::LogRecord& out) {
    while (queue_.empty()) {
      if (done_) return false;
      char buf[256 * 1024];
      in_.read(buf, sizeof buf);
      const auto got = static_cast<std::size_t>(in_.gcount());
      if (got > 0) decoder_.feed(std::string_view(buf, got));
      if (got < sizeof buf) {
        (void)decoder_.finish_stream();
        done_ = true;
      }
    }
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::ifstream in_;
  bool done_ = false;
  std::deque<httplog::LogRecord> queue_;  ///< before decoder_: its target
  LineDecoder decoder_;
};

/// The whole closed loop as one object so the fault handlers can reach
/// every piece (writers, ingest, checkpoints, counters) without threading
/// a dozen parameters around.
class SoakRun {
 public:
  explicit SoakRun(const ChaosConfig& config) : config_(config) {}

  ChaosReport run();

 private:
  // -- setup ----------------------------------------------------------------
  bool prepare_dirs();
  void open_writers();
  void schedule_epochs();

  // -- the live side: a TailSession, as `tail --checkpoint-dir` runs it --
  void boot_live(bool expect_resume);
  void persist();
  void drain_live();

  // -- per-record driver ----------------------------------------------------
  void on_record(httplog::LogRecord&& record);
  void on_second_boundary(std::int64_t sec);
  void fire_epoch(std::size_t epoch);
  void write_through(const httplog::LogRecord& record);
  void apply_torn_write(const httplog::LogRecord& record);
  void apply_enospc(const httplog::LogRecord& record);

  void finish(double wall_seconds);

  const ChaosConfig& config_;
  ChaosReport report_;

  std::vector<std::string> live_paths_;
  std::vector<std::unique_ptr<traffic::StreamWriter>> live_writers_;
  std::vector<std::unique_ptr<traffic::StreamWriter>> shadow_writers_;
  std::unique_ptr<TailSession> live_;

  /// (fire time, target vhost) per scripted epoch, in time order.
  struct Epoch {
    std::int64_t at_us = 0;
    std::uint32_t vhost = 0;
  };
  std::vector<Epoch> epochs_;
  std::size_t next_epoch_ = 0;
  std::uint64_t rotation_serial_ = 0;

  /// Record-targeted faults armed at a boundary, applied to the first
  /// record of the new second (= the epoch-crossing record).
  enum class Pending { kNone, kTorn, kEnospc };
  Pending pending_ = Pending::kNone;

  bool have_sec_ = false;
  std::int64_t current_sec_ = 0;
  std::int64_t last_poll_sec_ = 0;
  std::uint64_t last_persist_parsed_ = 0;
};

bool SoakRun::prepare_dirs() {
  return make_dir(config_.work_dir) && make_dir(config_.work_dir + "/shadow") &&
         make_dir(config_.work_dir + "/cp");
}

void SoakRun::open_writers() {
  traffic::StreamWriter::FaultPlan live_plan;
  live_plan.write_fn = chaos_write_fn;  // every live byte crosses the seam
  for (std::size_t v = 0; v < config_.spec.vhosts.size(); ++v) {
    const std::string base =
        "v" + std::to_string(v) + "_" + config_.spec.vhosts[v].name + ".log";
    live_paths_.push_back(config_.work_dir + "/" + base);
    live_writers_.push_back(std::make_unique<traffic::StreamWriter>(
        live_paths_.back(), live_plan, 256));
    shadow_writers_.push_back(std::make_unique<traffic::StreamWriter>(
        config_.work_dir + "/shadow/" + base,
        traffic::StreamWriter::FaultPlan(), 4096));
  }
}

void SoakRun::schedule_epochs() {
  // Evenly spread over the simulated duration, never at the very start or
  // end; target vhosts drawn deterministically from the chaos seed.
  stats::Rng rng(config_.chaos_seed);
  const std::int64_t start_us = config_.spec.start.micros();
  const std::int64_t span_us = config_.spec.end() - config_.spec.start;
  const int n = kChaosFaultEpochs;
  for (int e = 0; e < n; ++e) {
    Epoch epoch;
    epoch.at_us = start_us + span_us * (e + 1) / (n + 1);
    epoch.vhost = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config_.spec.vhosts.size()) - 1));
    epochs_.push_back(epoch);
  }
}

/// Builds (or rebuilds, after a kill) the ingest side: an exact-merge
/// TailSession (reorder window 0, so emission order is a pure function of
/// the merge key) over the live logs, checkpointing under <work_dir>/cp.
/// A kill is simply destroying it; a restart resumes from whatever the
/// last persist left on disk.
void SoakRun::boot_live(bool expect_resume) {
  TailSessionConfig session;
  session.paths = live_paths_;
  session.checkpoint_dir = config_.work_dir + "/cp";
  session.factory = detectors::make_paper_pair;
  session.reorder_window_us = 0;
  live_ = std::make_unique<TailSession>(std::move(session));
  if (!expect_resume) return;
  // A cold restart after a kill re-scores records the lost blob had
  // already counted — the failure mode the soak exists to catch.
  ++(live_->resume().warm() ? report_.warm_resumes : report_.cold_resumes);
}

void SoakRun::persist() {
  live_->persist();
  ++report_.checkpoints_persisted;
  last_persist_parsed_ = live_->tailer().stats().parsed;
}

void SoakRun::drain_live() {
  while (live_->poll() > 0) {
  }
}

void SoakRun::on_record(httplog::LogRecord&& record) {
  const std::int64_t sec = record.time.micros() / httplog::kMicrosPerSecond;
  if (!have_sec_) {
    have_sec_ = true;
    current_sec_ = sec;
    last_poll_sec_ = sec;
  } else if (sec > current_sec_) {
    on_second_boundary(sec);
    current_sec_ = sec;
  }
  write_through(record);
  ++report_.records_generated;
}

/// Everything that may touch the files or the ingest side happens here, at
/// the instant the stream crosses into a new wire second — when every
/// on-disk byte is a complete time-prefix of the stream. That single
/// discipline is what makes live emission order provably equal to a batch
/// replay (see the header).
void SoakRun::on_second_boundary(std::int64_t sec) {
  for (auto& writer : live_writers_) writer->flush();
  for (auto& writer : shadow_writers_) writer->flush();
  if (next_epoch_ < epochs_.size() && pending_ == Pending::kNone &&
      epochs_[next_epoch_].at_us <= sec * httplog::kMicrosPerSecond) {
    fire_epoch(next_epoch_++);
  }
  if (sec - last_poll_sec_ >= kPollIntervalS) {
    (void)live_->poll();
    last_poll_sec_ = sec;
  }
  if (live_->tailer().stats().parsed - last_persist_parsed_ >=
      config_.persist_every_records) {
    persist();
  }
}

void SoakRun::fire_epoch(std::size_t epoch) {
  const auto kind = static_cast<FaultKind>(epoch % kFaultKinds);
  const std::uint32_t v = epochs_[epoch].vhost;
  if (config_.verbose) {
    std::fprintf(stderr, "soak: epoch %zu at %s: %s (vhost %u)\n", epoch,
                 httplog::Timestamp(epochs_[epoch].at_us).to_iso8601().c_str(),
                 to_string(kind), v);
  }
  ++report_.faults;
  switch (kind) {
    case FaultKind::kRotate:
      // Drain first (lossless single rotation), rotate, let the tailer
      // observe the new incarnation, then re-anchor the checkpoints on it:
      // a kill at any later instant resumes against the inode the offsets
      // actually describe. (Real deployments do the same via a logrotate
      // postrotate hook.)
      drain_live();
      live_writers_[v]->rotate(live_paths_[v] + ".rot" +
                               std::to_string(++rotation_serial_));
      drain_live();
      persist();
      ++report_.rotations;
      break;
    case FaultKind::kTruncate:
      drain_live();
      live_writers_[v]->truncate_restart();
      drain_live();  // tailer sees size < offset, restarts at 0
      persist();
      ++report_.truncations;
      break;
    case FaultKind::kTornWrite:
      pending_ = Pending::kTorn;
      break;
    case FaultKind::kEnospc:
      pending_ = Pending::kEnospc;
      break;
    case FaultKind::kShortWriteBurst:
      g_seam_mode = SeamMode::kShortWrites;
      g_short_writes_left = 32;
      ++report_.short_write_bursts;
      break;
    case FaultKind::kKill:
      // SIGKILL equivalent: the ingest side vanishes mid-whatever, losing
      // everything since the last persisted cut — progress, never
      // correctness (resume rolls offsets and state back together).
      live_.reset();
      boot_live(/*expect_resume=*/true);
      ++report_.kills;
      break;
    case FaultKind::kPersistThenKill:
      persist();
      live_.reset();
      boot_live(/*expect_resume=*/true);
      ++report_.kills;
      break;
  }
}

void SoakRun::write_through(const httplog::LogRecord& record) {
  const std::size_t v =
      record.vhost < live_writers_.size() ? record.vhost : 0;
  if (pending_ == Pending::kTorn) {
    pending_ = Pending::kNone;
    apply_torn_write(record);
    shadow_writers_[v]->write(record);
    return;
  }
  if (pending_ == Pending::kEnospc) {
    pending_ = Pending::kNone;
    apply_enospc(record);
    return;  // the line never reached the log, so the shadow skips it too
  }
  live_writers_[v]->write(record);
  shadow_writers_[v]->write(record);
}

/// A write() that raced the reader: the line lands in two pieces with an
/// ingest poll between them. The tailer must hold the undecoded partial
/// (this record is the first of its wire second, so nothing can be emitted
/// out of order while it waits for its tail).
void SoakRun::apply_torn_write(const httplog::LogRecord& record) {
  const std::size_t v =
      record.vhost < live_writers_.size() ? record.vhost : 0;
  const std::string wire = httplog::format_clf(record) + "\n";
  const std::size_t cut = wire.size() / 2;
  live_writers_[v]->write_bytes(std::string_view(wire).substr(0, cut));
  (void)live_->poll();
  live_writers_[v]->write_bytes(std::string_view(wire).substr(cut));
  ++report_.torn_writes;
}

/// One whole line lost at the writer (disk full for exactly one write):
/// the queue is clean, so the armed failure takes down this record's line
/// and nothing else. By design the record never existed for any reader —
/// it is excluded from the shadow and counted as a scripted drop.
void SoakRun::apply_enospc(const httplog::LogRecord& record) {
  const std::size_t v =
      record.vhost < live_writers_.size() ? record.vhost : 0;
  live_writers_[v]->write(record);
  g_seam_mode = SeamMode::kFailNext;
  live_writers_[v]->flush();
  g_seam_mode = SeamMode::kClean;  // in case the flush never hit the seam
  ++report_.enospc_faults;
  ++report_.records_dropped;
}

/// End of day: drain, final checkpoint, then judge the live pipeline
/// against a one-shot batch replay of the fault-free shadows.
void SoakRun::finish(double wall_seconds) {
  for (auto& writer : live_writers_) writer->flush();
  for (auto& writer : shadow_writers_) writer->flush();
  drain_live();
  persist();

  const std::uint64_t live_late = live_->tailer().late_records();
  const std::uint64_t live_forced = live_->tailer().forced_emits();
  const core::JointResults live = live_->finish();
  report_.live_records = live.total_requests();
  report_.live_results_json = core::to_json(live);
  live_.reset();  // release detector state before the reference doubles it

  // Reference: explicit k-way merge of the shadows by the same key the
  // live tailer uses — (time, file index, per-file order) — into a fresh
  // engine, in bounded memory (one head record + one decode chunk per
  // file, plus one merged batch). Ground truth with no watermark machinery
  // in the loop.
  const auto ref_pool = detectors::make_paper_pair();
  ReplayEngine ref_engine(ref_pool);
  RecordBatch merged;
  std::vector<std::unique_ptr<ShadowSource>> sources;
  std::vector<std::optional<httplog::LogRecord>> heads;
  for (const auto& writer : shadow_writers_) {
    sources.push_back(std::make_unique<ShadowSource>(writer->path()));
    httplog::LogRecord head;
    heads.push_back(sources.back()->next(head)
                        ? std::optional<httplog::LogRecord>(std::move(head))
                        : std::nullopt);
  }
  for (;;) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(heads.size()); ++i) {
      if (heads[i] &&
          (best < 0 || heads[i]->time.micros() < heads[best]->time.micros())) {
        best = i;  // strict < keeps the lowest file index on time ties
      }
    }
    if (best < 0) break;
    merged.append_slot() = std::move(*heads[best]);
    if (merged.size() == kBatchRecords) {
      ref_engine.process_batch(merged);
      merged.clear();
    }
    heads[best].reset();
    httplog::LogRecord head;
    if (sources[best]->next(head)) heads[best] = std::move(head);
  }
  ref_engine.process_batch(merged);
  report_.reference_records = ref_engine.results().total_requests();
  const std::string reference_json = core::to_json(ref_engine.results());

  report_.results_identical = report_.live_results_json == reference_json;
  if (!report_.results_identical) {
    // Leave both documents behind for diffing — a divergence with no
    // evidence trail is undebuggable after the fact.
    (void)util::write_file_atomic(config_.work_dir + "/live_results.json",
                                  report_.live_results_json + "\n");
    (void)util::write_file_atomic(config_.work_dir + "/reference_results.json",
                                  reference_json + "\n");
  }
  if (config_.verbose) {
    std::fprintf(stderr, "soak: live merge hatches: %llu late, %llu forced\n",
                 static_cast<unsigned long long>(live_late),
                 static_cast<unsigned long long>(live_forced));
  }
  if (report_.reference_records > report_.live_records) {
    report_.lost_records = report_.reference_records - report_.live_records;
  } else {
    report_.duplicate_records =
        report_.live_records - report_.reference_records;
  }
  // The process high-water, read after the reference pass: it covers
  // every phase (polls, persists, kills, finish), not just sampled ones.
  report_.rss_peak_kb = static_cast<std::uint64_t>(util::peak_rss_kb());
  report_.rss_within_limit =
      config_.rss_limit_mb <= 0.0 ||
      static_cast<double>(report_.rss_peak_kb) <= config_.rss_limit_mb * 1024.0;
  report_.wall_seconds = wall_seconds;
  report_.records_per_s =
      wall_seconds > 0.0
          ? static_cast<double>(report_.records_generated) / wall_seconds
          : 0.0;
  report_.passed = report_.results_identical && report_.lost_records == 0 &&
                   report_.duplicate_records == 0 &&
                   report_.cold_resumes == 0 &&
                   report_.warm_resumes == report_.kills &&
                   report_.rss_within_limit;
}

ChaosReport SoakRun::run() {
  if (!prepare_dirs()) {
    std::fprintf(stderr, "soak: cannot create work dir %s\n",
                 config_.work_dir.c_str());
    return report_;
  }
  open_writers();
  schedule_epochs();
  boot_live(/*expect_resume=*/false);
  // Establish a resumable cut immediately: a kill scripted before the
  // first cadence-driven persist still finds a (trivial) warm snapshot.
  persist();

  workload::EngineConfig engine_config;
  engine_config.gen_threads = config_.gen_threads;
  engine_config.partitions = config_.partitions;
  engine_config.lazy_actors = true;  // megasite-class specs need it
  workload::WorkloadEngine engine(config_.spec, engine_config);

  const auto t0 = std::chrono::steady_clock::now();
  engine.run([this](httplog::LogRecord&& record) {
    on_record(std::move(record));
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  finish(wall);
  return report_;
}

}  // namespace

ChaosReport run_chaos_soak(const ChaosConfig& config) {
  SoakRun soak(config);
  return soak.run();
}

bool write_chaos_bench(const ChaosConfig& config, const ChaosReport& report,
                       const std::string& path) {
  std::string out;
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value("divscrape.bench_soak.v1");

  json.key("config");
  json.begin_object();
  json.key("scenario").value(config.spec.name);
  json.key("scale").value(config.spec.scale);
  json.key("duration_days").value(config.spec.duration_days);
  json.key("vhosts").value(static_cast<std::uint64_t>(config.spec.vhosts.size()));
  json.key("chaos_seed").value(config.chaos_seed);
  json.key("fault_epochs").value(kChaosFaultEpochs);
  json.key("gen_threads").value(static_cast<std::uint64_t>(config.gen_threads));
  json.key("partitions").value(static_cast<std::uint64_t>(config.partitions));
  json.key("lazy_actors").value(true);
  json.key("poll_interval_s").value(kPollIntervalS);
  json.key("persist_every_records").value(config.persist_every_records);
  json.key("rss_limit_mb").value(config.rss_limit_mb);
  json.end_object();

  json.key("report");
  json.begin_object();
  json.key("records_generated").value(report.records_generated);
  json.key("records_dropped").value(report.records_dropped);
  json.key("live_records").value(report.live_records);
  json.key("reference_records").value(report.reference_records);
  json.key("faults").value(report.faults);
  json.key("rotations").value(report.rotations);
  json.key("truncations").value(report.truncations);
  json.key("torn_writes").value(report.torn_writes);
  json.key("enospc_faults").value(report.enospc_faults);
  json.key("short_write_bursts").value(report.short_write_bursts);
  json.key("kills").value(report.kills);
  json.key("warm_resumes").value(report.warm_resumes);
  json.key("cold_resumes").value(report.cold_resumes);
  json.key("checkpoints_persisted").value(report.checkpoints_persisted);
  json.key("lost_records").value(report.lost_records);
  json.key("duplicate_records").value(report.duplicate_records);
  json.key("results_identical").value(report.results_identical);
  json.key("rss_peak_kb").value(report.rss_peak_kb);
  json.key("rss_within_limit").value(report.rss_within_limit);
  json.key("wall_seconds").value(report.wall_seconds);
  json.key("records_per_s").value(report.records_per_s);
  json.key("passed").value(report.passed);
  json.end_object();

  json.end_object();
  out += '\n';
  return util::write_file_atomic(path, out);
}

}  // namespace divscrape::pipeline
