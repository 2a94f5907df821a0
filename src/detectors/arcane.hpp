// ArcaneDetector: the in-house behavioural detector (the paper's Arcane
// role, Amadeus's own tool).
//
// Arcane reasons about *how a client browses*, not how fast it comes in:
// it keeps a sliding 2-minute window of each client's requests and scores
// behavioural signals that separate browsers from scrapers —
//
//   * asset starvation    — a claimed browser that renders pages but never
//     fetches css/js/images;
//   * template monotony   — low entropy over normalized path templates
//     (/offers/123 and /offers/987 are the same template; catalogue sweeps
//     collapse to one or two templates);
//   * referer discipline  — browsers carry referers, scrapers mostly don't;
//   * protocol hygiene    — 4xx ratios from broken automation;
//   * API polling         — high 204 No-Content ratios from availability
//     hammering;
//   * cache sweeps        — high 304 ratios from conditional-GET scrapers;
//   * raw in-window volume.
//
// The signature that matters for the reproduction: Arcane needs a dozen
// requests of context before it can speak (so it misses warm-up phases the
// commercial tool's reputation covers), but it catches low-and-slow,
// malformed-request, API-polling and cache-sweep scrapers that never trip
// per-request rules — the paper's "Arcane only" mass with its distinctive
// 204/400/304 skew.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "detectors/detector.hpp"
#include "httplog/session.hpp"
#include "util/interner.hpp"

namespace divscrape::detectors {

/// Signal weights and thresholds (defaults are the calibrated settings).
struct ArcaneConfig {
  double window_s = 120.0;
  int min_requests = 10;        ///< behavioural floor: silent below this
  double alert_threshold = 0.6;

  double w_asset_starvation = 0.35;
  double w_scripted_ua = 0.45;
  double w_template_monotony = 0.30;
  double w_no_referer = 0.15;
  double w_error_ratio = 0.40;
  double w_no_content_ratio = 0.30;
  double w_not_modified_ratio = 0.30;
  double w_volume_extreme = 0.65;///< volume alone is conclusive
  double w_volume_high = 0.40;   ///< >= volume_high requests in window
  double w_volume_medium = 0.25; ///< >= volume_medium requests in window
  int volume_extreme = 240;
  int volume_high = 60;
  int volume_medium = 24;

  double error_ratio_min = 0.15;
  double no_content_ratio_min = 0.15;
  double not_modified_ratio_min = 0.30;
  double referer_ratio_max = 0.10;
  int template_monotony_max = 2;  ///< distinct templates considered monotone

  /// Declared crawlers below this in-window volume are whitelisted.
  int declared_bot_grace = 30;
};

class ArcaneDetector final : public Detector {
 public:
  explicit ArcaneDetector(ArcaneConfig config = ArcaneConfig{});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "arcane";
  }
  [[nodiscard]] Verdict evaluate(const httplog::LogRecord& record) override;
  void reset() override;

  /// Warm-checkpoint dump/restore: every live behavioural window (sorted by
  /// session key), the interned path templates (live entries reference
  /// their tokens, so they transfer in full), the local UA interner, and
  /// the sweep counter. A config fingerprint guards mistuned restores.
  /// The "ARCN" v1 blob carried a path memo instead of the templates; it
  /// is rejected (cold restart).
  [[nodiscard]] bool save_state(util::StateWriter& w) const override;
  [[nodiscard]] bool load_state(util::StateReader& r) override;

  [[nodiscard]] const ArcaneConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t tracked_clients() const noexcept {
    return clients_.size();
  }

 private:
  struct Entry {
    httplog::Timestamp time;
    std::uint32_t template_token = 0;
    bool asset = false;
    bool referer = false;
    bool error_4xx = false;
    bool no_content = false;
    bool not_modified = false;
  };

  /// Per-client sliding window as a flat ring (PR 9 redesign; was
  /// std::deque + std::unordered_map). The window holds at most a couple
  /// hundred entries even for the hottest scrapers, so a contiguous ring
  /// with O(1) push/pop beats the deque's chunked allocation, and a flat
  /// (token, count) vector with linear scan beats the hash map — the
  /// distinct-template count rarely exceeds template_monotony_max + a
  /// handful, so the scan is a few cache lines where the map was a heap
  /// node per template. Serialization iterates the ring oldest-first and
  /// sorts templates on save, so saved bytes are identical to the old
  /// containers'.
  struct ClientState {
    /// Entry i (oldest-first) lives at ring[(head + i) % ring.size()].
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    // Running counts over the window (kept in sync on push/prune).
    int assets = 0;
    int referers = 0;
    int errors_4xx = 0;
    int no_content = 0;
    int not_modified = 0;
    /// Distinct in-window templates with counts; unsorted, linear-scanned.
    std::vector<std::pair<std::uint32_t, int>> templates;
    httplog::Timestamp last_seen{0};
    // UA facts are per-client constants (the key includes the UA), read
    // from the detector's UaInfoCache when the client is first seen.
    bool scripted = false;
    bool declared_bot = false;
    bool browser = false;
    bool ua_classified = false;

    [[nodiscard]] const Entry& front() const noexcept { return ring[head]; }
    [[nodiscard]] const Entry& at(std::size_t i) const noexcept {
      return ring[(head + i) % ring.size()];
    }
    void push(const Entry& e);
    void pop_front() noexcept {
      head = (head + 1) % ring.size();
      --count;
    }
    void bump_template(std::uint32_t token);
    void drop_template(std::uint32_t token);

   private:
    void grow();
  };

  void prune(ClientState& state, httplog::Timestamp now);
  void maybe_sweep(httplog::Timestamp now);

  ArcaneConfig config_;
  std::unordered_map<httplog::SessionKey, ClientState,
                     httplog::SessionKeyHash>
      clients_;
  util::StringInterner local_uas_;  ///< fallback for unstamped records
  /// A new client's UA flags come from here: one classification per
  /// distinct UA, not per client (a megasite day has ~100k clients over a
  /// few dozen UAs). A memo, not state; reset() and load_state() clear it.
  httplog::UaInfoCache ua_info_;
  /// Detector-wide path -> template-token tokenizer. It interns templates
  /// only: most megasite paths are seen once, so a per-path memo would
  /// hit almost never while dominating memory and the checkpoint. Capped
  /// (the detector lives for the whole stream); past the cap new templates
  /// degrade to hash tokens flagged with the overflow bit.
  httplog::PathTemplateTokenizer paths_{std::size_t{1} << 20};
  std::uint64_t evaluations_ = 0;
  /// One-entry client memo: bursty traffic hits the same session on
  /// consecutive records, skipping the clients_ probe. The pointer is safe
  /// to cache because unordered_map nodes are stable across insert/rehash;
  /// it is dropped whenever the sweep erases (reset() covers load_state).
  httplog::SessionKey last_key_{};
  ClientState* last_state_ = nullptr;
};

}  // namespace divscrape::detectors
