#include "pipeline/tail_session.hpp"

#include <cstdio>
#include <utility>

#include "pipeline/replay.hpp"
#include "util/hash.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace divscrape::pipeline {

std::string checkpoint_file_for(const std::string& dir,
                                const std::string& log_path) {
  std::string name = log_path;
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  char hash[16];
  std::snprintf(hash, sizeof hash, ".%08x", util::fnv1a32(log_path));
  return dir + "/" + name + hash + ".cp.json";
}

/// Consumer + tailer as one unit of lifetime: what a kill takes down and a
/// failed restore rebuilds together. The tailer's sink references the
/// consumer, so it is declared (and destroyed) last.
struct TailSession::Ingest {
  std::vector<std::unique_ptr<detectors::Detector>> pool;
  std::unique_ptr<ReplayEngine> engine;
  BatchPool batch_pool;            ///< the engine's recycle loop
  util::StringInterner ua_tokens;  ///< sharded dispatch stamps here
  std::unique_ptr<ShardedPipeline> sharded;
  std::unique_ptr<MultiTailer> tailer;

  explicit Ingest(const TailSessionConfig& config) {
    MultiTailConfig tail_config;
    tail_config.reorder_window_us = config.reorder_window_us;
    MultiTailer::BatchSink sink;
    BatchPool* recycle = &batch_pool;
    if (config.shards > 1) {
      sharded = std::make_unique<ShardedPipeline>(
          config.factory, config.shards, kBatchRecords,
          /*max_backlog=*/16 * 1024, config.dispatchers);
      recycle = &sharded->batch_pool();
      sink = [this](RecordBatch&& batch) {
        for (auto& record : batch)
          record.ua_token = ua_tokens.intern(record.user_agent);
        sharded->process_batch(std::move(batch));
      };
    } else {
      pool = config.factory();
      engine = std::make_unique<ReplayEngine>(pool);
      sink = [this](RecordBatch&& batch) {
        engine->process_batch(batch);
        batch_pool.recycle(std::move(batch));
      };
    }
    tailer = std::make_unique<MultiTailer>(config.paths, std::move(sink),
                                           kBatchRecords, tail_config, recycle);
  }

  /// Warm restore from the offsets embedded in the session file — never
  /// the per-log files, which may describe a newer cut — and the blob only
  /// behind fully honored offsets: a replaced file restarts at 0 and
  /// would replay records the blob already counted. On false the caller
  /// discards this unit, so a partial restore is harmless.
  [[nodiscard]] bool restore(const TailSessionState& session,
                             TailResume& out) {
    out.outcome = TailResume::Outcome::kOtherLogSet;
    if (session.logs.size() != tailer->files()) return false;
    bool all_honored = true;
    for (std::size_t i = 0; i < tailer->files(); ++i) {
      const Checkpoint* embedded = nullptr;
      for (const auto& [path, cp] : session.logs) {
        if (path == tailer->path(i)) embedded = &cp;
      }
      if (!embedded) return false;
      out.logs[i] = {out.session_path, embedded->offset, embedded->parsed,
                     true};
      all_honored &= tailer->resume(i, *embedded);
    }
    out.outcome = TailResume::Outcome::kStateRejected;
    if (!all_honored || !load_state(session.state)) return false;
    out.outcome = TailResume::Outcome::kWarm;
    return true;
  }

  [[nodiscard]] bool load_state(const std::string& blob) {
    util::StateReader r(blob);
    const std::uint8_t mode = r.u8();
    if (!r.ok() || mode != (sharded ? 1 : 0)) return false;
    if (sharded) {
      if (!ua_tokens.load_state(r) || !sharded->load_state(r)) return false;
    } else if (!engine->load_state(r)) {
      return false;
    }
    return r.at_end();
  }

  [[nodiscard]] bool save_state(util::StateWriter& w) {
    w.u8(sharded ? 1 : 0);
    if (!sharded) return engine->save_state(w);
    ua_tokens.save_state(w);
    return sharded->save_state(w);
  }
};

TailSession::TailSession(TailSessionConfig config)
    : config_(std::move(config)),
      ingest_(std::make_unique<Ingest>(config_)) {
  if (config_.checkpoint_dir.empty()) return;
  session_path_ = config_.checkpoint_dir + "/tail_session.state.json";
  for (const auto& path : config_.paths) {
    checkpoint_paths_.push_back(
        checkpoint_file_for(config_.checkpoint_dir, path));
  }
}

TailSession::~TailSession() = default;

TailResume TailSession::resume() {
  TailResume out;
  out.session_path = session_path_;
  out.logs.resize(config_.paths.size());
  if (config_.checkpoint_dir.empty()) return out;
  if (const auto session = TailSessionState::load(session_path_)) {
    if (ingest_->restore(*session, out)) return out;
    // Discard whatever the failed restore left in the tailers, engine,
    // interner or shards before the cold resume below.
    ingest_.reset();
    ingest_ = std::make_unique<Ingest>(config_);
    out.logs.assign(config_.paths.size(), {});
  }
  MultiTailer& tailer = *ingest_->tailer;
  for (std::size_t i = 0; i < tailer.files(); ++i) {
    if (const auto cp = Checkpoint::load(checkpoint_paths_[i])) {
      out.logs[i] = {checkpoint_paths_[i], cp->offset, cp->parsed,
                     tailer.resume(i, *cp)};
    }
  }
  return out;
}

std::size_t TailSession::poll() { return ingest_->tailer->poll(); }

std::uint64_t TailSession::flush() { return ingest_->tailer->flush(); }

void TailSession::persist() {
  // Offsets cover every decoded record, so each must be truly processed
  // first: flush the merge queues into the sink and drain the shard rings
  // (a crash would otherwise lose queued records the resume then skips).
  MultiTailer& tailer = *ingest_->tailer;
  (void)tailer.flush();
  if (ingest_->sharded) ingest_->sharded->drain();
  if (config_.checkpoint_dir.empty()) return;
  for (std::size_t i = 0; i < tailer.files(); ++i) {
    if (!tailer.checkpoint(i).save(checkpoint_paths_[i])) {
      std::fprintf(stderr, "cannot save checkpoint %s\n",
                   checkpoint_paths_[i].c_str());
    }
  }
  util::StateWriter w;
  if (!ingest_->save_state(w)) return;  // a pool without state support
  TailSessionState session;
  for (std::size_t i = 0; i < tailer.files(); ++i) {
    session.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
  }
  session.state = w.take();
  if (!session.save(session_path_)) {
    std::fprintf(stderr, "cannot save session state %s\n",
                 session_path_.c_str());
  }
}

core::JointResults TailSession::finish() {
  (void)ingest_->tailer->flush();
  if (ingest_->sharded) return ingest_->sharded->finish();
  return ingest_->engine->results();
}

const core::JointResults* TailSession::live_results() const noexcept {
  return ingest_->engine ? &ingest_->engine->results() : nullptr;
}

const MultiTailer& TailSession::tailer() const noexcept {
  return *ingest_->tailer;
}

std::vector<std::uint64_t> TailSession::shard_processed() const {
  if (!ingest_->sharded) return {};
  return ingest_->sharded->shard_processed();
}

}  // namespace divscrape::pipeline
