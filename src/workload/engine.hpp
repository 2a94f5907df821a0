// WorkloadEngine: parallel, deterministic, streaming generation of a
// ScenarioSpec — the generation-side counterpart of pipeline::MultiTailer's
// ingest merge.
//
// ## Partitioning model
//
// The actor population is split across `partitions` *logical* partitions by
// a stable rule (global actor ordinal mod partitions; per-vhost human
// arrival processes are thinned into `partitions` independent processes of
// rate λ/P — the Poisson superposition identity in reverse). Every actor's
// RNG is seeded by hashing (spec seed, actor ordinal), never by walking a
// shared fork chain, so partition p's record stream is a pure function of
// (spec, partitions, p):
//
//   * independent of how many threads execute the partitions,
//   * independent of which thread executes partition p,
//   * and buildable in isolation (partition construction parallelizes).
//
// ## Time-merged execution
//
// Generation advances in simulated-time windows of one hour. Each
// round, `gen_threads` workers claim partitions from an atomic counter and
// run each partition's TrafficGenerator up to the window horizon into a
// per-partition buffer (the record that crosses the horizon is carried to
// the next round). The caller's thread then merges the window's sorted
// buffers on a (timestamp, partition, seq) min-heap — the same documented
// merge-key discipline as MultiTailer — and streams records into the sink
// in one deterministic global time order. Windows are double-buffered:
// round w+1 generates while round w merges, so the merge costs no
// wall-clock on a multi-core host.
//
// The result is byte-identical output for a given (spec, partitions)
// regardless of gen_threads — the determinism contract the
// workload tests pin at 1/2/4 threads — in bounded memory (two windows of
// records), never materializing the stream. Records leave unstamped
// (`ua_token == 0`): the detection consumer mints UA tokens.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "httplog/record.hpp"
#include "httplog/timestamp.hpp"
#include "pipeline/record_batch.hpp"
#include "traffic/generator.hpp"
#include "traffic/site.hpp"
#include "workload/scenario_spec.hpp"

namespace divscrape::workload {

struct EngineConfig {
  /// Generator worker threads (>= 1). Purely an execution knob: the output
  /// stream is identical for any value.
  std::size_t gen_threads = 1;
  /// Logical partitions (>= 1). Part of the output contract: changing it
  /// changes the population-to-partition assignment and therefore the
  /// stream. Keep the default unless you need more parallelism headroom
  /// than 8 threads.
  std::size_t partitions = 8;
  /// Lazy actor materialization: scripted (non-human) actors are built on
  /// their first scheduled arrival and freed at lifetime end, so partition
  /// memory tracks the concurrently-live population instead of the spec
  /// totals — what makes megasite-class specs (>= 1M distinct actors)
  /// feasible. Output is byte-identical to the eager path for every spec
  /// and thread count (the contract workload_engine tests pin); the cost is
  /// a second construction pass per actor, so it defaults off for the
  /// small catalog entries.
  bool lazy_actors = false;
};

/// Total scripted (non-human) actors a spec materializes over its run, at
/// its own scale — the number that decides whether lazy_actors is worth it.
[[nodiscard]] std::uint64_t static_population(const ScenarioSpec& spec);

/// Ordinal-range descriptor of one scripted-actor group (engine internal).
struct ActorGroup;

class WorkloadEngine {
 public:
  /// Receives the merged, time-ordered record stream.
  using RecordSink = std::function<void(httplog::LogRecord&&)>;
  /// Receives the merged stream framed into RecordBatches (batch mode).
  using BatchSink = std::function<void(pipeline::RecordBatch&&)>;

  explicit WorkloadEngine(ScenarioSpec spec,
                          EngineConfig config = EngineConfig());
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  /// Generates the whole scenario into `sink`, time-ordered. Callable
  /// exactly once; returns the number of records emitted.
  std::uint64_t run(const RecordSink& sink);

  /// Batch-mode run: the engine already produces whole sorted time windows,
  /// so it hands them downstream as RecordBatches of `batch_records`
  /// (copy-assigned into warm slots — the arena contract) instead of one
  /// record at a time. A partial batch is flushed at every merge-window
  /// boundary, so a batch never spans windows and the emission order is
  /// identical to run(). Wire `pool` to the consumer's recycle side (e.g.
  /// &pipeline.batch_pool()) to close the arena loop. Callable exactly
  /// once (shares run()'s once-only contract); returns records emitted.
  std::uint64_t run_batched(const BatchSink& sink,
                            std::size_t batch_records = pipeline::kBatchRecords,
                            pipeline::BatchPool* pool = nullptr);

  /// Cooperative cancellation (signal-handler driven): run() stops merging
  /// at the next record boundary, finishes the in-flight worker round, and
  /// returns what was emitted so far. Safe to call from any thread.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  /// Actors actually constructed across all partitions (spawned humans +
  /// materialized or eager scripted actors). This and peak_live_actors()
  /// are kept for tests: they are the only observable of lazy actors'
  /// memory bound.
  [[nodiscard]] std::uint64_t actors_created() const noexcept;
  /// Sum of per-partition concurrently-live high-water marks — the bound
  /// on resident actor state (distinct-actor count does not appear here;
  /// that is the point of lazy materialization).
  [[nodiscard]] std::size_t peak_live_actors() const noexcept;

 private:
  struct Partition;
  /// Merge-time emission hook: receives each record as a mutable lvalue
  /// (record mode moves it out; batch mode copy-assigns into a warm slot).
  using EmitFn = std::function<void(httplog::LogRecord&)>;

  [[nodiscard]] traffic::TrafficGenerator::Materialized materialize(
      std::uint64_t cookie) const;

  void build_partition(Partition& part) const;
  static void generate_window(Partition& part, httplog::Timestamp horizon,
                              int buf);
  /// The generate/merge round loop shared by run() and run_batched();
  /// `on_window_end` (optional) fires after each merged window.
  std::uint64_t run_rounds(const EmitFn& emit,
                           const std::function<void()>& on_window_end);
  void merge_window(int buf, const EmitFn& emit);
  void worker_loop();
  void start_round(httplog::Timestamp horizon, int buf);
  void wait_round();

  ScenarioSpec spec_;
  EngineConfig config_;
  /// One immutable site model per vhost, shared read-only by every
  /// partition (all SiteModel sampling is const with a caller-owned Rng).
  std::vector<std::unique_ptr<traffic::SiteModel>> sites_;

  std::vector<std::unique_ptr<Partition>> parts_;
  /// Ordinal-range table of every scripted actor group, in walk order —
  /// what the lazy materializer maps a cookie (global ordinal) back to a
  /// (vhost, group kind, member) identity with.
  std::vector<ActorGroup> groups_;
  std::uint64_t emitted_ = 0;
  bool ran_ = false;
  std::atomic<bool> stop_{false};

  // Worker-pool round coordination (see engine.cpp).
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace divscrape::workload
