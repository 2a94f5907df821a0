// TailSession: the one open -> resume -> poll -> persist -> finish path
// behind every `divscrape tail` and the chaos soak.
//
// Pins, at 1 and at 2 shards: an uninterrupted
// session ends byte-identical to a one-shot batch replay of the merged
// stream; a kill after every persist resumes warm and ends byte-identical
// to an uninterrupted session;
// a session file hand-built with the documented layout (mode byte +
// component states) resumes warm, so existing checkpoint dirs keep
// working; and any failed warm restore drops every half-loaded component
// and equals a fresh-consumer cold resume from the per-log offsets.
// With one log and one checkpoint file (`tail --checkpoint`): the file is
// byte for byte what LogTailer + ReplayEngine used to write, such a file
// resumes warm, and kills, damaged blobs and a replaced log behave as
// above.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "catalog_stream.hpp"
#include "core/export.hpp"
#include "detectors/registry.hpp"
#include "httplog/clf.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/multi_tailer.hpp"
#include "pipeline/replay.hpp"
#include "pipeline/sharded.hpp"
#include "pipeline/tail_session.hpp"
#include "pipeline/tailer.hpp"
#include "traffic/stream_writer.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

using namespace divscrape;
using Outcome = pipeline::TailResume::Outcome;

constexpr std::size_t kFiles = 3;
/// Out-batch size of the hand-built sessions' merged stream.
constexpr std::size_t kMergeBatch = 64;

const std::vector<httplog::LogRecord>& records() {
  static const std::vector<httplog::LogRecord> all =
      test::catalog_records("smoke");
  return all;
}

/// Growing logs plus where a session persists, all under one
/// process-unique directory (ctest runs each case as its own process):
/// kFiles logs and a checkpoint dir, or with `single_file` one log and one
/// checkpoint file (`tail --checkpoint`).
struct Fixture {
  std::string root;
  std::string cp_dir;
  bool single_file;
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<traffic::StreamWriter>> writers;

  explicit Fixture(const std::string& tag, bool single = false)
      : root(::testing::TempDir() + "divscrape_session_" +
             std::to_string(::getpid()) + "_" + tag),
        cp_dir(root + "/cp"),
        single_file(single) {
    std::filesystem::create_directories(cp_dir);
    for (std::size_t i = 0; i < (single ? 1 : kFiles); ++i) {
      paths.push_back(root + "/vhost" + std::to_string(i) + ".log");
      writers.push_back(std::make_unique<traffic::StreamWriter>(paths.back()));
    }
  }
  ~Fixture() {
    writers.clear();
    std::error_code ignored;
    std::filesystem::remove_all(root, ignored);
  }

  /// Records [begin, end), fanned out round-robin (each file stays
  /// time-ordered).
  void write_range(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      writers[i % writers.size()]->write(records()[i]);
    }
  }

  /// The session file, or the single checkpoint file.
  [[nodiscard]] std::string session_file() const {
    return single_file ? root + "/tail.cp.json"
                       : cp_dir + "/tail_session.state.json";
  }

  [[nodiscard]] std::unique_ptr<pipeline::TailSession> session(
      std::size_t shards) const {
    pipeline::TailSessionConfig config;
    config.paths = paths;
    if (single_file) {
      config.checkpoint_file = session_file();
    } else {
      config.checkpoint_dir = cp_dir;
    }
    config.factory = [] { return detectors::make_paper_pair(); };
    config.shards = shards;
    return std::make_unique<pipeline::TailSession>(std::move(config));
  }
};

/// Records ingested across every incarnation (checkpoint accounting
/// survives a resume; tailer().stats() counts this incarnation only).
std::uint64_t ingested(const pipeline::TailSession& session) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < session.tailer().files(); ++i) {
    total += session.tailer().checkpoint(i).parsed;
  }
  return total;
}

/// One session over what the logs hold so far, persisted once.
void persist_once(const Fixture& fx, std::size_t shards) {
  auto session = fx.session(shards);
  (void)session->resume();
  (void)session->poll();
  session->persist();
}

/// Writes each phase, polls and persists; with `kill`, destroys the
/// session after every persist and resumes a new one (which must be warm).
std::string run_phases(const std::string& tag, std::size_t shards,
                       const std::vector<std::size_t>& phase_ends, bool kill,
                       bool single_file = false) {
  Fixture fx(tag, single_file);
  auto session = fx.session(shards);
  EXPECT_EQ(session->resume().outcome, Outcome::kNoSession);
  std::size_t begin = 0;
  for (const std::size_t end : phase_ends) {
    fx.write_range(begin, end);
    begin = end;
    (void)session->poll();
    session->persist();
    if (kill) {
      session.reset();
      session = fx.session(shards);
      const auto resumed = session->resume();
      EXPECT_TRUE(resumed.warm());
      for (const auto& log : resumed.logs) {
        EXPECT_EQ(log.from, fx.session_file());
        EXPECT_TRUE(log.honored);
      }
    }
  }
  EXPECT_EQ(ingested(*session), phase_ends.back());
  return core::to_json(session->finish());
}

std::vector<std::size_t> thirds() {
  const std::size_t n = records().size();
  return {n / 3, 2 * n / 3, n};
}

std::vector<std::size_t> halves() {
  const std::size_t n = records().size();
  return {n / 2, n};
}

/// One-shot batch replay of every record in the session's merge order:
/// (time as the log carries it, whole seconds; file index; per-file
/// order), with record i in file i % kFiles.
std::string merged_batch_replay_json() {
  std::vector<std::size_t> order(records().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto second = [](std::size_t i) {
    return records()[i].time.micros() / httplog::kMicrosPerSecond;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return second(a) != second(b)
                                ? second(a) < second(b)
                                : a % kFiles < b % kFiles;
                   });
  std::string merged;
  for (const std::size_t i : order) {
    merged += httplog::format_clf(records()[i]);
    merged += '\n';
  }
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  std::istringstream in(merged);
  const auto stats = engine.replay(in);
  EXPECT_EQ(stats.parsed, records().size());
  return core::to_json(engine.results());
}

TEST(TailSession, UninterruptedSessionMatchesOneShotBatchReplay) {
  const std::string reference = merged_batch_replay_json();
  EXPECT_EQ(run_phases("batch_seq", 1, thirds(), false), reference);
  EXPECT_EQ(run_phases("batch_shard", 2, thirds(), false), reference);
}

TEST(TailSession, KillAfterEachPersistIsByteIdenticalSequential) {
  EXPECT_EQ(run_phases("kill_seq", 1, thirds(), true),
            run_phases("base_seq", 1, thirds(), false));
}

TEST(TailSession, KillAfterEachPersistIsByteIdenticalSharded) {
  EXPECT_EQ(run_phases("kill_shard", 2, thirds(), true),
            run_phases("base_shard", 2, thirds(), false));
}

/// Phase one through raw components, committed as the documented session
/// layout: mode byte 0 + ReplayEngine state, or mode byte 1 + dispatch
/// interner + ShardedPipeline state. Phase two resumes via TailSession.
std::string resume_hand_built(const std::string& tag, bool sharded) {
  const std::size_t split = halves().front();
  Fixture fx(tag);
  fx.write_range(0, split);
  {
    pipeline::TailSessionState state;
    util::StateWriter w;
    const auto commit = [&](pipeline::MultiTailer& tailer) {
      (void)tailer.poll();
      (void)tailer.flush();
      for (std::size_t i = 0; i < tailer.files(); ++i) {
        state.logs.emplace_back(tailer.path(i), tailer.checkpoint(i));
      }
    };
    if (sharded) {
      pipeline::ShardedPipeline pipeline(
          [] { return detectors::make_paper_pair(); }, 2);
      util::StringInterner ua_tokens;
      pipeline::MultiTailer tailer(
          fx.paths,
          [&](pipeline::RecordBatch&& batch) {
            for (auto& record : batch)
              record.ua_token = ua_tokens.intern(record.user_agent);
            pipeline.process_batch(std::move(batch));
          },
          kMergeBatch, pipeline::MultiTailConfig{}, &pipeline.batch_pool());
      commit(tailer);
      w.u8(1);
      ua_tokens.save_state(w);
      EXPECT_TRUE(pipeline.save_state(w));
    } else {
      const auto pool = detectors::make_paper_pair();
      pipeline::ReplayEngine engine(pool);
      pipeline::MultiTailer tailer(
          fx.paths,
          [&](pipeline::RecordBatch&& batch) { engine.process_batch(batch); },
          kMergeBatch);
      commit(tailer);
      w.u8(0);
      EXPECT_TRUE(engine.save_state(w));
    }
    state.state = w.take();
    EXPECT_TRUE(state.save(fx.session_file()));
  }
  auto session = fx.session(sharded ? 2 : 1);
  EXPECT_TRUE(session->resume().warm());
  fx.write_range(split, records().size());
  (void)session->poll();
  return core::to_json(session->finish());
}

TEST(TailSession, HandBuiltSequentialSessionFileResumesWarm) {
  EXPECT_EQ(resume_hand_built("hand_seq", false),
            run_phases("hand_seq_base", 1, halves(), false));
}

TEST(TailSession, HandBuiltShardedSessionFileResumesWarm) {
  EXPECT_EQ(resume_hand_built("hand_shard", true),
            run_phases("hand_shard_base", 2, halves(), false));
}

TEST(TailSession, ShardedSessionResumedSequentiallyIsCold) {
  const std::size_t split = halves().front();
  Fixture fx("mode_switch");
  fx.write_range(0, split);
  persist_once(fx, 2);
  auto session = fx.session(1);
  const auto resumed = session->resume();
  EXPECT_EQ(resumed.outcome, Outcome::kStateRejected);
  EXPECT_FALSE(resumed.warm());
  ASSERT_EQ(resumed.logs.size(), kFiles);
  for (std::size_t i = 0; i < kFiles; ++i) {
    EXPECT_EQ(resumed.logs[i].from,
              pipeline::checkpoint_file_for(fx.cp_dir, fx.paths[i]));
    EXPECT_TRUE(resumed.logs[i].honored);
  }
  fx.write_range(split, records().size());
  (void)session->poll();
  EXPECT_EQ(ingested(*session), records().size());
}

/// Rewrites every `magic` component tag of version 2 in a persisted
/// sharded session blob to version 1, i.e. the blob an older build wrote,
/// then requires the resume to be cold from the per-log checkpoints.
void expect_v1_component_resumes_cold(const std::string& tag,
                                      std::uint32_t magic) {
  const std::size_t split = halves().front();
  Fixture fx(tag);
  fx.write_range(0, split);
  persist_once(fx, 2);
  auto saved = pipeline::TailSessionState::load(fx.session_file());
  ASSERT_TRUE(saved.has_value());
  util::StateWriter v2_tag;
  util::put_tag(v2_tag, magic, 2);
  const std::string needle = v2_tag.take();
  std::size_t patched = 0;
  for (auto pos = saved->state.find(needle); pos != std::string::npos;
       pos = saved->state.find(needle, pos + needle.size())) {
    saved->state[pos + 4] = 1;  // the little-endian u32 version
    ++patched;
  }
  ASSERT_GT(patched, 0u);
  ASSERT_TRUE(saved->save(fx.session_file()));

  auto session = fx.session(2);
  const auto resumed = session->resume();
  EXPECT_EQ(resumed.outcome, Outcome::kStateRejected);
  for (std::size_t i = 0; i < kFiles; ++i) {
    EXPECT_EQ(resumed.logs[i].from,
              pipeline::checkpoint_file_for(fx.cp_dir, fx.paths[i]));
    EXPECT_TRUE(resumed.logs[i].honored);
  }
  fx.write_range(split, records().size());
  (void)session->poll();
  EXPECT_EQ(ingested(*session), records().size());
}

TEST(TailSession, V1ShardRoutingSessionResumesCold) {
  expect_v1_component_resumes_cold("v1_shrd", 0x53485244u /* "SHRD" */);
}

TEST(TailSession, V1ArcaneStateSessionResumesCold) {
  expect_v1_component_resumes_cold("v1_arcn", 0x4152434Eu /* "ARCN" */);
}

/// Regression for the half-restored consumer: a session blob with one
/// trailing byte restores every component and only then fails at_end().
/// The session must report cold AND end equal to a fresh consumer resumed
/// cold from the same per-log offsets — no loaded state may survive.
void expect_damaged_blob_resumes_cold(const std::string& tag,
                                      std::size_t shards) {
  const std::size_t split = halves().front();
  Fixture fx(tag);
  fx.write_range(0, split);
  persist_once(fx, shards);
  auto saved = pipeline::TailSessionState::load(fx.session_file());
  ASSERT_TRUE(saved.has_value());
  saved->state.push_back('\0');
  ASSERT_TRUE(saved->save(fx.session_file()));
  fx.write_range(split, records().size());

  const auto cold_run = [&](Outcome expected) {
    auto session = fx.session(shards);
    const auto resumed = session->resume();
    EXPECT_EQ(resumed.outcome, expected);
    for (const auto& log : resumed.logs) EXPECT_TRUE(log.honored);
    (void)session->poll();
    EXPECT_EQ(ingested(*session), records().size());
    return core::to_json(session->finish());
  };
  const std::string damaged = cold_run(Outcome::kStateRejected);
  std::remove(fx.session_file().c_str());
  EXPECT_EQ(damaged, cold_run(Outcome::kNoSession));
}

TEST(TailSession, DamagedBlobResumesColdFromFreshConsumerSequential) {
  expect_damaged_blob_resumes_cold("damaged_seq", 1);
}

TEST(TailSession, DamagedBlobResumesColdFromFreshConsumerSharded) {
  expect_damaged_blob_resumes_cold("damaged_shard", 2);
}

TEST(TailSession, CheckpointFileNamesArePinnedAndCollisionFree) {
  EXPECT_EQ(pipeline::checkpoint_file_for("/cp", "/var/log/apache2/access.log"),
            "/cp/_var_log_apache2_access.log.7ceb60f8.cp.json");
  EXPECT_NE(pipeline::checkpoint_file_for("/cp", "/logs/a/b.log"),
            pipeline::checkpoint_file_for("/cp", "/logs/a_b.log"));
}

// --- one log, one checkpoint file (`tail --checkpoint`) --------------------

/// One-shot batch replay of records [begin, end) in file order.
std::string file_order_replay_json(std::size_t begin, std::size_t end) {
  std::string text;
  for (std::size_t i = begin; i < end; ++i) {
    text += httplog::format_clf(records()[i]);
    text += '\n';
  }
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  std::istringstream in(text);
  EXPECT_EQ(engine.replay(in).parsed, end - begin);
  return core::to_json(engine.results());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Commits the single log's checkpoint the way the one-log tail used to
/// write it: a LogTailer on a ReplayEngine's own decoder, then the
/// engine's save_state blob as the Checkpoint v3 `state`.
void write_hand_built_checkpoint(const Fixture& fx) {
  const auto pool = detectors::make_paper_pair();
  pipeline::ReplayEngine engine(pool);
  pipeline::LogTailer tailer(fx.paths.front(), engine);
  (void)tailer.poll();
  pipeline::Checkpoint cp = tailer.checkpoint();
  util::StateWriter w;
  ASSERT_TRUE(engine.save_state(w));
  cp.state = w.take();
  ASSERT_TRUE(cp.save(fx.session_file()));
}

TEST(TailSession, HandBuiltSingleCheckpointFileResumesWarm) {
  const std::size_t split = halves().front();
  Fixture fx("single_hand", true);
  fx.write_range(0, split);
  write_hand_built_checkpoint(fx);
  auto session = fx.session(1);
  const auto resumed = session->resume();
  EXPECT_EQ(resumed.outcome, Outcome::kWarm);
  ASSERT_EQ(resumed.logs.size(), 1u);
  EXPECT_EQ(resumed.logs[0].from, fx.session_file());
  EXPECT_TRUE(resumed.logs[0].honored);
  EXPECT_EQ(resumed.logs[0].parsed, split);
  fx.write_range(split, records().size());
  (void)session->poll();
  EXPECT_EQ(ingested(*session), records().size());
  EXPECT_EQ(core::to_json(session->finish()),
            file_order_replay_json(0, records().size()));
}

TEST(TailSession, SingleFilePersistWritesTheHandBuiltBytes) {
  // Cut mid-line: the next record is half written, so both writers must
  // stop the offset at the last complete line.
  const std::size_t split = halves().front();
  Fixture fx("single_bytes", true);
  fx.write_range(0, split);
  const std::string next = httplog::format_clf(records()[split]);
  fx.writers.front()->write_bytes(next.substr(0, next.size() / 2));
  write_hand_built_checkpoint(fx);
  const std::string hand_built = read_file(fx.session_file());
  const auto parsed = pipeline::Checkpoint::from_json(hand_built);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->parsed, split);
  EXPECT_FALSE(parsed->state.empty());
  ASSERT_TRUE(std::filesystem::remove(fx.session_file()));

  auto session = fx.session(1);
  EXPECT_EQ(session->resume().outcome, Outcome::kNoSession);
  (void)session->poll();
  EXPECT_EQ(session->tailer().partial_lines(), 1u);
  session->persist();
  EXPECT_EQ(read_file(fx.session_file()), hand_built);
}

TEST(TailSession, SingleFileKillAfterEachPersistIsByteIdentical) {
  const std::string uninterrupted =
      run_phases("single_base", 1, thirds(), false, true);
  EXPECT_EQ(uninterrupted, file_order_replay_json(0, records().size()));
  EXPECT_EQ(run_phases("single_kill", 1, thirds(), true, true),
            uninterrupted);
}

TEST(TailSession, SingleFileDamagedBlobResumesColdFromFreshConsumer) {
  const std::size_t split = halves().front();
  Fixture fx("single_damaged", true);
  fx.write_range(0, split);
  persist_once(fx, 1);
  auto saved = pipeline::Checkpoint::load(fx.session_file());
  ASSERT_TRUE(saved.has_value());
  ASSERT_FALSE(saved->state.empty());
  // One trailing byte: the engine restores in full, then at_end() fails.
  saved->state.push_back('\0');
  ASSERT_TRUE(saved->save(fx.session_file()));
  fx.write_range(split, records().size());

  // Reference: a fresh engine resumed cold from the same offset.
  std::string cold;
  {
    const auto pool = detectors::make_paper_pair();
    pipeline::ReplayEngine engine(pool);
    pipeline::LogTailer tailer(fx.paths.front(), engine);
    ASSERT_TRUE(tailer.resume(*saved));
    (void)tailer.poll();
    EXPECT_EQ(tailer.checkpoint().parsed, records().size());
    cold = core::to_json(engine.results());
  }
  auto session = fx.session(1);
  const auto resumed = session->resume();
  EXPECT_EQ(resumed.outcome, Outcome::kStateRejected);
  ASSERT_EQ(resumed.logs.size(), 1u);
  EXPECT_EQ(resumed.logs[0].from, fx.session_file());
  EXPECT_TRUE(resumed.logs[0].honored);
  (void)session->poll();
  EXPECT_EQ(ingested(*session), records().size());
  EXPECT_EQ(core::to_json(session->finish()), cold);
}

TEST(TailSession, SingleFileReplacedLogDiscardsOffsetAndState) {
  const std::size_t split = halves().front();
  Fixture fx("single_replaced", true);
  fx.write_range(0, split);
  persist_once(fx, 1);
  // Replaced while down: a new file under the same path holds only the
  // later records.
  fx.writers.clear();
  const std::string replacement = fx.paths.front() + ".new";
  {
    traffic::StreamWriter writer(replacement);
    for (std::size_t i = split; i < records().size(); ++i)
      writer.write(records()[i]);
  }
  std::filesystem::rename(replacement, fx.paths.front());

  auto session = fx.session(1);
  const auto resumed = session->resume();
  EXPECT_EQ(resumed.outcome, Outcome::kStateRejected);
  ASSERT_EQ(resumed.logs.size(), 1u);
  EXPECT_EQ(resumed.logs[0].from, fx.session_file());
  EXPECT_FALSE(resumed.logs[0].honored);
  (void)session->poll();
  // Read from 0 by cold detectors; the accounting carries over.
  EXPECT_EQ(ingested(*session), records().size());
  EXPECT_EQ(core::to_json(session->finish()),
            file_order_replay_json(split, records().size()));
}

TEST(TailSession, SingleCheckpointFileNeedsOneLogOneShardAndNoDir) {
  Fixture fx("single_invalid", true);
  const auto config = [&] {
    pipeline::TailSessionConfig c;
    c.paths = fx.paths;
    c.checkpoint_file = fx.session_file();
    c.factory = [] { return detectors::make_paper_pair(); };
    return c;
  };
  EXPECT_NO_THROW(pipeline::TailSession{config()});
  auto two_logs = config();
  two_logs.paths.push_back(fx.root + "/other.log");
  auto no_log = config();
  no_log.paths.clear();
  auto sharded = config();
  sharded.shards = 2;
  auto with_dir = config();
  with_dir.checkpoint_dir = fx.cp_dir;
  for (auto* bad : {&two_logs, &no_log, &sharded, &with_dir}) {
    EXPECT_THROW(pipeline::TailSession{std::move(*bad)},
                 std::invalid_argument);
  }
}

}  // namespace
