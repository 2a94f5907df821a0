// The malicious population: price-scraping bots.
//
// One configurable actor class covers the five behavioural archetypes the
// scenario deploys (aggressive fleet member, low-and-slow stealth bot,
// availability-API poller, buggy malformed-request bot, conditional-GET
// caching bot). The archetypes differ only in their BotProfile, which keeps
// the behaviour space explicit and testable.
//
// A bot's life is a sequence of *work sessions*: a burst of `session_len`
// requests separated by `gap` seconds, then a long `pause`, repeated until
// the simulation ends or the lifetime request budget is spent. Within a
// session the bot sweeps the offer catalogue (sequentially from a random
// start, or uniformly), interleaving fare searches, availability checks and
// booking probes per its endpoint mix.
#pragma once

#include <cstdint>
#include <string>

#include "httplog/ip.hpp"
#include "stats/rng.hpp"
#include "traffic/actor.hpp"
#include "traffic/site.hpp"

namespace divscrape::traffic {

/// Complete behavioural description of one scraper bot.
struct BotProfile {
  ActorClass cls = ActorClass::kScraperAggressive;
  httplog::Ipv4 ip;
  std::string user_agent;

  // Endpoint mix (remaining mass goes to offer pages).
  double p_search = 0.08;   ///< fare-search queries
  double p_api = 0.02;      ///< availability API calls
  double p_book = 0.02;     ///< booking-funnel probes (302s)
  double p_malformed = 0.0; ///< per-request probability of a broken request
  double p_dead_link = 0.0; ///< probes of stale URLs (404s)

  /// Conditional-GET re-fetching (the caching archetype): probability that
  /// an offer fetch carries If-Modified-Since.
  double p_conditional = 0.0;

  // --- evasion features (experiment E13) ---
  /// Browser mimicry: probability that a page fetch is followed by a
  /// static-asset fetch (defeats asset-starvation signals).
  double p_asset_mimicry = 0.0;
  /// Sample a fresh browser UA at every session (defeats per-(ip,ua)
  /// behavioural state carried across sessions).
  bool rotate_ua_per_session = false;
  /// Move to a fresh clean address at every session (defeats IP
  /// reputation and subnet escalation).
  bool rotate_ip_per_session = false;

  bool sweep_sequential = true;  ///< catalogue walk order
  double referer_p = 0.05;       ///< probability of carrying a Referer

  // Timing. Gaps are exponential unless `lognormal_gap` (stealth bots pace
  // themselves like humans).
  bool lognormal_gap = false;
  double gap_mean_s = 0.35;      ///< mean in-session inter-request gap
  double gap_median_s = 20.0;    ///< log-normal median (stealth)
  double gap_sigma = 0.8;

  double session_len_mean = 400; ///< geometric mean requests per session
  double pause_mean_s = 6 * 3600;///< exponential pause between sessions
  std::uint64_t lifetime_requests = 0;  ///< 0 = unlimited
};

/// The "clean" public-address pool: uniformly random addresses avoiding
/// loopback, RFC1918-ish space, the campaign /8 neighbourhood (45.*) and
/// the declared-crawler range (66.*). Shared by human sessions, stealth
/// bots and per-session IP rotation, so every population builder draws
/// from one definition of "unsuspicious address".
[[nodiscard]] httplog::Ipv4 sample_clean_ip(stats::Rng& rng);

// --- calibrated archetype parameter tables -------------------------------
//
// Each returns a BotProfile with class, endpoint mix and timing set to the
// values the paper-shaped reproduction was calibrated with; callers assign
// identity (ip, user_agent) and may override timing knobs. The workload
// engine (workload/engine.cpp) builds every spec's populations, the
// calibrated paper scenario included, from these tables, so a calibration
// change lands everywhere at once.

/// Fast fare-scraping fleet member (~3-day sweep cadence).
[[nodiscard]] BotProfile aggressive_fleet_profile();
/// Sub-behavioural-threshold fleet member parked inside the flagged /24s.
[[nodiscard]] BotProfile slow_fleet_member_profile();
/// Low-and-slow stealth scraper behind clean residential addresses.
[[nodiscard]] BotProfile stealth_scraper_profile();
/// Availability-API poller, clean-IP flavour (the in-house tool's catch).
[[nodiscard]] BotProfile api_clean_poller_profile();
/// Availability-API poller, campaign-IP flavour (the commercial tool's).
[[nodiscard]] BotProfile api_fleet_poller_profile();
/// Buggy scraper stack emitting malformed requests (400-heavy).
[[nodiscard]] BotProfile malformed_scraper_profile();
/// Conditional-GET caching scraper (304-heavy).
[[nodiscard]] BotProfile caching_scraper_profile();

/// One scraper bot driven by its profile.
class ScraperBot final : public Actor {
 public:
  ScraperBot(const SiteModel& site, BotProfile profile,
             httplog::Timestamp end_time, stats::Rng rng,
             std::uint32_t actor_id);

  [[nodiscard]] ActorClass actor_class() const noexcept override {
    return profile_.cls;
  }

  [[nodiscard]] StepResult step(httplog::Timestamp now,
                                httplog::LogRecord& out) override;

  [[nodiscard]] const BotProfile& profile() const noexcept { return profile_; }

 private:
  void begin_session();
  [[nodiscard]] double next_gap_s();

  const SiteModel* site_;
  BotProfile profile_;
  httplog::Timestamp end_time_;
  stats::Rng rng_;
  std::uint32_t actor_id_;

  std::uint64_t emitted_ = 0;
  std::uint64_t session_remaining_ = 0;
  std::size_t sweep_pos_ = 1;
  // Current identity (rebound per session when rotation is enabled).
  httplog::Ipv4 current_ip_;
  std::string current_ua_;
  bool asset_pending_ = false;  ///< mimicry: next emission is an asset
};

}  // namespace divscrape::traffic
