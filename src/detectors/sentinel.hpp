// SentinelDetector: the commercial bot-mitigation stand-in (the paper's
// Distil Networks role).
//
// Built from the mechanism family commercial products document publicly:
//
//   * user-agent screening  — automation-framework and headless-browser
//     signatures alert immediately and blacklist the client;
//   * rate tripwires        — per-IP burst (10 req / 10 s) and sustained
//     (40 req / 60 s) limits;
//   * IP reputation         — once flagged, every later request from the
//     address alerts until the flag's TTL lapses (refreshed on activity);
//   * /24 escalation        — when several distinct addresses of one /24
//     are flagged, the whole subnet is flagged: remaining fleet members
//     are caught from their first request, at the cost of collateral
//     false positives on benign neighbours;
//   * fingerprint heuristic — ancient browser versions plus activity;
//   * good-bot allowlist    — declared crawlers are never alerted (real
//     products verify them via reverse DNS; the simulation has no UA
//     spoofing of declared crawlers, so the allowlist is exact here).
//
// The *behavioural signature* that matters for the reproduction: Sentinel
// alerts the most in total, keeps alerting flagged clients long after the
// triggering burst (reputation persistence), and sweeps in borderline
// clients via subnet escalation — the paper's "Distil only" mass.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "detectors/detector.hpp"
#include "httplog/ip.hpp"
#include "httplog/session.hpp"
#include "httplog/timestamp.hpp"

namespace divscrape::detectors {

/// Tuning knobs (defaults are the calibrated reproduction settings).
struct SentinelConfig {
  double burst_window_s = 10.0;
  int burst_limit = 25;
  double sustained_window_s = 60.0;
  int sustained_limit = 60;
  double reputation_ttl_s = 24.0 * 3600.0;
  /// Distinct flagged IPs within a /24 that flag the whole subnet.
  int subnet_flag_threshold = 3;
  /// Stale-browser fingerprints need this much activity to alert.
  int stale_fingerprint_min_rate = 8;  ///< per sustained window
  /// Ablation switches (experiment E7/E9).
  bool enable_reputation = true;
  bool enable_subnet_escalation = true;
  bool enable_fingerprinting = true;
};

class SentinelDetector final : public Detector {
 public:
  explicit SentinelDetector(SentinelConfig config = SentinelConfig{});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sentinel";
  }
  [[nodiscard]] Verdict evaluate(const httplog::LogRecord& record) override;
  void reset() override;

  /// Warm-checkpoint dump/restore: the reputation maps (sorted for
  /// deterministic bytes), the empty UA section (see
  /// put_empty_ua_section()), and the sweep counters.
  /// The UA classification cache (httplog::UaInfoCache) is a recomputable
  /// memo and is NOT serialized; reset() and load_state() clear it. A
  /// config fingerprint guards restores into a differently tuned instance.
  [[nodiscard]] bool save_state(util::StateWriter& w) const override;
  [[nodiscard]] bool load_state(util::StateReader& r) override;

  [[nodiscard]] const SentinelConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Per-IP arrival times over the sustained window, as a flat ring (PR 9;
  /// was std::deque). The deque re-walked chunked heap nodes on every
  /// record — both the front prune and the reverse burst scan; the ring is
  /// one contiguous allocation, and while the timestamps are monotone
  /// (true for every time-ordered stream; a late merge emission clears the
  /// flag) the burst count is a binary search instead of an O(burst)
  /// reverse scan. Semantics are unchanged either way: when the ring is
  /// sorted the scan and the search count the same entries, and a
  /// non-monotone ring falls back to the scan. Serialization iterates
  /// oldest-first — identical bytes to the deque's.
  struct IpState {
    std::vector<httplog::Timestamp> ring;  ///< pruned to sustained window
    std::size_t head = 0;
    std::size_t count = 0;
    /// True while arrivals are non-decreasing (enables the binary search).
    /// Derived state: recomputed on load, conservatively sticky-false.
    bool monotone = true;
    httplog::Timestamp flagged_until{0};
    bool counted_in_subnet = false;
    httplog::Timestamp last_seen{0};

    [[nodiscard]] httplog::Timestamp at(std::size_t i) const noexcept {
      return ring[(head + i) % ring.size()];
    }
    [[nodiscard]] httplog::Timestamp front() const noexcept {
      return ring[head];
    }
    void push(httplog::Timestamp t);
    void pop_front() noexcept {
      head = (head + 1) % ring.size();
      --count;
    }
    /// Entries with timestamp >= cutoff, counted from the newest end —
    /// exactly the deque's reverse-scan semantics.
    [[nodiscard]] int count_since(httplog::Timestamp cutoff) const noexcept;
  };
  struct SubnetState {
    int violator_ips = 0;
    httplog::Timestamp flagged_until{0};
  };

  void flag_ip(IpState& state, httplog::Ipv4 ip, httplog::Timestamp now);
  void maybe_sweep(httplog::Timestamp now);
  SentinelConfig config_;
  std::unordered_map<httplog::Ipv4, IpState, httplog::Ipv4Hash> ips_;
  std::unordered_map<httplog::Ipv4, SubnetState, httplog::Ipv4Hash> subnets_;
  /// UA classification once per distinct UA, not once per record (see
  /// httplog::UaInfoCache for the cap).
  httplog::UaInfoCache ua_info_;
  std::uint64_t evaluations_ = 0;
  httplog::Timestamp now_{0};
};

}  // namespace divscrape::detectors
