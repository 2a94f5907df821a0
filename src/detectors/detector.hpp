// The detector abstraction both reproduced tools (and any custom detector)
// implement.
//
// A detector is a *streaming* classifier: it sees the log one record at a
// time, in time order, exactly like the paper's tools observed the Amadeus
// application-layer traffic, and renders a per-request verdict. Detectors
// are stateful (reputation, sliding behavioural windows) and never see
// ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "httplog/record.hpp"
#include "util/state.hpp"

namespace divscrape::detectors {

/// Why a detector alerted — the basis for experiment E9 (root-causing
/// single-tool alerts, the paper's Section V item).
enum class AlertReason : std::uint8_t {
  kNone,
  kBadUserAgent,      ///< automation/headless/empty UA
  kRateLimit,         ///< burst or sustained per-IP rate tripwire
  kIpReputation,      ///< previously-flagged client
  kSubnetReputation,  ///< flagged /24 neighbourhood
  kFingerprint,       ///< stale-browser fingerprint + activity
  kBehavioral,        ///< session-behaviour score over threshold
  kProtocolAnomaly,   ///< malformed requests / 4xx pattern
  kApiAbuse,          ///< availability-API polling pattern
  kCacheSweep,        ///< conditional-GET sweep pattern
};

[[nodiscard]] std::string_view to_string(AlertReason r) noexcept;

/// Per-request verdict.
struct Verdict {
  bool alert = false;
  /// Suspicion score in [0, 1]; alert implies score >= the detector's
  /// operating threshold. Exposed for the ROC sweep (experiment E8).
  double score = 0.0;
  AlertReason reason = AlertReason::kNone;
};

/// Streaming per-request detector.
class Detector {
 public:
  virtual ~Detector() = default;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// Stable display name ("sentinel", "arcane", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Judges one record. Records must arrive in non-decreasing time order.
  ///
  /// Records arrive stamped: the consumer (ReplayEngine, DetectionStage)
  /// sets `record.ua_token` from its one interner, and a detector keys its
  /// per-UA state by that token and interns nothing. An unstamped record
  /// (`ua_token == 0`) is still judged, as token 0: the built-in detectors'
  /// UA classification runs uncached, so Sentinel (keyed by IP) gives the
  /// stamped verdicts; Arcane keys it as (ip, 0), so every unstamped UA
  /// from one IP shares one client, which keeps the first one's UA flags.
  [[nodiscard]] virtual Verdict evaluate(const httplog::LogRecord& record) = 0;

  /// Drops all accumulated state (fresh deployment).
  virtual void reset() = 0;

  /// Dumps the detector's warm state for checkpointing. The default says
  /// "not supported" (false, nothing written): a pool containing such a
  /// detector cannot be checkpointed warm and falls back to cold resume.
  /// Restore assumes an identically-configured instance; implementations
  /// embed a config fingerprint and fail the load on a mismatch.
  [[nodiscard]] virtual bool save_state(util::StateWriter& w) const {
    (void)w;
    return false;
  }
  /// Restores from save_state() output; on failure the detector must be
  /// left reset (cold) and return false.
  [[nodiscard]] virtual bool load_state(util::StateReader& r) {
    (void)r;
    return false;
  }

 protected:
  Detector() = default;
};

/// The UA-interner section of the built-in "SNTL" and "ARCN" blobs. Their
/// detectors key by stamped tokens and hold no interner, and every writer
/// has left the section empty, so it is the "INTN" v1 tag and a count of
/// 0: kept so blobs stay byte-identical and older checkpoints resume warm.
void put_empty_ua_section(util::StateWriter& w);
/// Reads that section; false (the reader failed) unless it is empty.
[[nodiscard]] bool check_empty_ua_section(util::StateReader& r);

}  // namespace divscrape::detectors
