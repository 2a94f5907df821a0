#include "pipeline/tail_session.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"
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

void TailSession::build() {
  // Tear the old pair down first, the tailer before the stage its sink
  // references.
  tailer_.reset();
  stage_.reset();
  stage_ = std::make_unique<DetectionStage>(config_.factory, config_.shards);
  MultiTailConfig tail_config;
  tail_config.reorder_window_us = config_.reorder_window_us;
  tailer_ = std::make_unique<MultiTailer>(
      config_.paths,
      [this](RecordBatch&& batch) { stage_->process_batch(std::move(batch)); },
      kBatchRecords, tail_config, &stage_->batch_pool());
}

bool TailSession::restore(const TailSessionState& session, TailResume& out) {
  out.outcome = TailResume::Outcome::kOtherLogSet;
  if (session.logs.size() != tailer_->files()) return false;
  bool all_honored = true;
  for (std::size_t i = 0; i < tailer_->files(); ++i) {
    const Checkpoint* embedded = nullptr;
    for (const auto& [path, cp] : session.logs) {
      if (path == tailer_->path(i)) embedded = &cp;
    }
    if (!embedded) return false;
    out.logs[i] = {out.session_path, embedded->offset, embedded->parsed, true};
    all_honored &= tailer_->resume(i, *embedded);
  }
  out.outcome = TailResume::Outcome::kStateRejected;
  if (!all_honored || !stage_->load_state(session.state)) return false;
  out.outcome = TailResume::Outcome::kWarm;
  return true;
}

TailSession::TailSession(TailSessionConfig config)
    : config_(std::move(config)) {
  if (!config_.checkpoint_file.empty()) {
    if (config_.paths.size() != 1 || config_.shards != 1 ||
        !config_.checkpoint_dir.empty()) {
      throw std::invalid_argument(
          "a single checkpoint file takes one log, one shard and no "
          "checkpoint dir");
    }
    session_path_ = config_.checkpoint_file;
    checkpoint_paths_.push_back(session_path_);
  } else if (!config_.checkpoint_dir.empty()) {
    session_path_ = config_.checkpoint_dir + "/tail_session.state.json";
    for (const auto& path : config_.paths) {
      checkpoint_paths_.push_back(
          checkpoint_file_for(config_.checkpoint_dir, path));
    }
  }
  build();
}

TailSession::~TailSession() = default;

TailResume TailSession::resume() {
  TailResume out;
  out.session_path = session_path_;
  out.logs.resize(config_.paths.size());
  if (session_path_.empty()) return out;
  std::optional<TailSessionState> session;
  if (config_.checkpoint_file.empty()) {
    session = TailSessionState::load(session_path_);
  } else if (auto cp = Checkpoint::load(session_path_)) {
    // A one-log session whose blob lacks the sequential mode byte.
    session.emplace();
    session->state = std::string(1, '\0') + cp->state;
    session->logs.emplace_back(config_.paths.front(), std::move(*cp));
  }
  if (session) {
    if (restore(*session, out)) return out;
    // Discard whatever the failed restore left in the tailers or the stage
    // before the cold resume below.
    build();
    out.logs.assign(config_.paths.size(), {});
  }
  MultiTailer& tailer = *tailer_;
  for (std::size_t i = 0; i < tailer.files(); ++i) {
    if (const auto cp = Checkpoint::load(checkpoint_paths_[i])) {
      out.logs[i] = {checkpoint_paths_[i], cp->offset, cp->parsed,
                     tailer.resume(i, *cp)};
    }
  }
  return out;
}

std::size_t TailSession::poll() { return tailer_->poll(); }

std::uint64_t TailSession::flush() { return tailer_->flush(); }

void TailSession::persist() {
  // Offsets cover every decoded record, so each must be truly processed
  // first: flush the merge queues into the sink and drain the shard rings
  // (a crash would otherwise lose queued records the resume then skips).
  MultiTailer& tailer = *tailer_;
  (void)tailer.flush();
  stage_->drain();
  if (session_path_.empty()) return;
  const bool single = !config_.checkpoint_file.empty();
  util::StateWriter w;
  // A pool without state support persists offsets only.
  const bool stateful = stage_->save_state(w, /*mode_byte=*/!single);
  TailSessionState session;
  if (stateful) session.state = w.take();
  for (std::size_t i = 0; i < tailer.files(); ++i) {
    Checkpoint cp = tailer.checkpoint(i);
    session.logs.emplace_back(tailer.path(i), cp);
    // A single checkpoint file carries the blob itself, without mode byte.
    if (single) cp.state = std::move(session.state);
    if (!cp.save(checkpoint_paths_[i])) {
      std::fprintf(stderr, "cannot save checkpoint %s\n",
                   checkpoint_paths_[i].c_str());
    }
  }
  if (single || !stateful) return;
  if (!session.save(session_path_)) {
    std::fprintf(stderr, "cannot save session state %s\n",
                 session_path_.c_str());
  }
}

core::JointResults TailSession::finish() {
  (void)tailer_->flush();
  return stage_->finish();
}

}  // namespace divscrape::pipeline
