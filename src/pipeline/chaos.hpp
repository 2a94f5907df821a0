// Chaos soak: a production-day closed loop under scripted failure.
//
// One process plays both sides of a deployment: a WorkloadEngine generates
// a scenario (megasite-class via lazy actors) into one live CLF log per
// vhost through StreamWriters, while a pipeline::TailSession — the code
// behind `divscrape tail --checkpoint-dir` — ingests those logs, periodic
// warm checkpoints included. A seeded ChaosPlan injects faults at scripted
// simulated-time epochs:
//
//   * rotation (rename + recreate) and copytruncate-style truncation;
//   * torn writes held across a poll (partial line visible to the tailer);
//   * one-shot ENOSPC (a whole line dropped at the writer, by design);
//   * short-write bursts through the writer's write_fn seam;
//   * kill-anywhere: the TailSession (tailer, decoder, detectors) is
//     destroyed WITHOUT any final flush or checkpoint, then rebuilt and
//     resumed from whatever the last periodic persist left on disk — the
//     in-process equivalent of SIGKILL + restart.
//
// ## The oracle
//
// Every line successfully written to a live log is also appended to a
// per-vhost *shadow* log that no fault ever touches. After the run, a
// fresh one-shot batch replay of the shadows through the same exact-merge
// MultiTailer discipline is the ground truth: the soak passes only if the
// live pipeline's JointResults JSON is byte-identical to the reference,
// every record was ingested exactly once (no loss, no duplicates), every
// kill resumed warm, and the process RSS high-water stayed under the
// configured bound.
//
// ## Determinism
//
// The whole soak is a pure function of (spec, engine config, chaos_seed):
// faults fire at scripted simulated times, target the record stream
// deterministically, and every ingest step happens at a wire-second
// boundary with all writers flushed first — so the live merge order equals
// the batch merge order by construction (same argument as the multi-file
// fault-equivalence tests), and a soak failure is replayable.
#pragma once

#include <cstdint>
#include <string>

#include "workload/scenario_spec.hpp"

namespace divscrape::pipeline {

/// Scripted fault epochs, spread evenly over the simulated duration. The
/// seven fault kinds cycle deterministically, so each fires three times
/// (six kills).
inline constexpr int kChaosFaultEpochs = 21;

/// The soak always generates with lazy actors and polls the live logs
/// every 2 simulated seconds (writers flushed first).
struct ChaosConfig {
  workload::ScenarioSpec spec;  ///< workload to soak (megasite-class)
  std::string work_dir;         ///< live logs, shadows, checkpoints
  std::uint64_t chaos_seed = 0xC4A05ULL;
  std::size_t gen_threads = 4;
  std::size_t partitions = 8;
  /// Persist warm checkpoints every this many parsed records.
  std::uint64_t persist_every_records = 200'000;
  /// Process RSS high-water bound in MiB; <= 0 disables the check.
  double rss_limit_mb = 4096.0;
  bool verbose = false;  ///< per-epoch progress on stderr
};

struct ChaosReport {
  std::uint64_t records_generated = 0;
  std::uint64_t records_dropped = 0;  ///< scripted ENOSPC whole-line drops
  std::uint64_t live_records = 0;     ///< records the live pipeline scored
  std::uint64_t reference_records = 0;

  std::uint64_t faults = 0;  ///< every scripted injection, kills included
  std::uint64_t rotations = 0;
  std::uint64_t truncations = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t enospc_faults = 0;
  std::uint64_t short_write_bursts = 0;
  std::uint64_t kills = 0;
  std::uint64_t warm_resumes = 0;
  std::uint64_t cold_resumes = 0;  ///< any > 0 fails the soak
  std::uint64_t checkpoints_persisted = 0;

  std::uint64_t lost_records = 0;       ///< reference - live (when > 0)
  std::uint64_t duplicate_records = 0;  ///< live - reference (when > 0)
  bool results_identical = false;  ///< live JSON == batch-replay JSON

  std::uint64_t rss_peak_kb = 0;  ///< current-RSS high-water during the run
  bool rss_within_limit = false;
  double wall_seconds = 0.0;
  double records_per_s = 0.0;  ///< generated records / wall

  std::string live_results_json;  ///< final JointResults document
  bool passed = false;
};

/// Runs the closed loop; `work_dir` is created if missing and left in
/// place afterwards (logs + checkpoints are the evidence trail).
[[nodiscard]] ChaosReport run_chaos_soak(const ChaosConfig& config);

/// Serializes (config, report) as the machine-readable soak bench document
/// (schema divscrape.bench_soak.v1), atomically. Returns false on I/O error.
[[nodiscard]] bool write_chaos_bench(const ChaosConfig& config,
                                     const ChaosReport& report,
                                     const std::string& path);

}  // namespace divscrape::pipeline
