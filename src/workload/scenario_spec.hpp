// Declarative workload scenarios: the spec a WorkloadEngine runs.
//
// A ScenarioSpec composes a complete simulated deployment out of data — a
// set of vhosts (each with its own site model and benign population) and a
// per-vhost attack mix — so new workloads are JSON documents or catalog
// entries instead of C++. It is the only description of a workload: the
// calibrated single-site paper reproduction is the catalog's amadeus_like
// entry, built on the same actor models as every other spec.
//
// ## JSON schema (divscrape.scenario.v1)
//
// One flat object; all fields optional unless marked required, defaults as
// in the structs below. `to_json()` always emits every field, with one
// deliberate exception: the optional `evasion` block is emitted only when
// present, so specs that predate it serialize byte-identically to before
// the schema grew it.
//
//   {
//     "schema": "divscrape.scenario.v1",      // required, exact match
//     "name": "flash_crowd",
//     "seed": 20180311,                        // u64; full precision kept
//     "start_micros": 1520726400000000,        // epoch µs, UTC
//     "start": "2018-03-11",                   // parse-only alternative
//                                              // (midnight UTC; ignored
//                                              // when start_micros given)
//     "duration_days": 2.0,                    // > 0
//     "scale": 1.0,                            // > 0, population multiplier
//     "vhosts": [                              // required, >= 1 entry
//       {
//         "name": "www",
//         "site": {                            // traffic::SiteModel::Config
//           "catalogue_size": 50000,           // >= 1
//           "offer_zipf_s": 0.9,
//           "city_pairs": 400,
//           "asset_count": 28,
//           "api_no_content_p": 0.28,
//           "server_error_p": 8e-06,
//           "zipf_table_cap": 0            // 0 = exact O(catalogue) table;
//                                          // > 0 bounds the popularity
//                                          // table (megasite; tail sampled
//                                          // by continuous approximation)
//         },
//         "humans": {
//           "arrivals_per_s": 0.0253,          // sessions/s at scale 1.0
//           "diurnal_amplitude": 0.55,         // [0, 1)
//           "in_botnet_subnet_p": 0.0015,
//           "surge_start_day": -1.0,           // < 0 = no surge
//           "surge_duration_h": 0.0,           // surge window length
//           "surge_multiplier": 1.0            // rate multiplier inside it
//         },
//         "crawlers": 3,
//         "crawler_gap_mean_s": 250.0,
//         "monitors": 2,
//         "monitor_period_s": 120.0,
//         "attacks": [
//           {
//             "kind": "fleet",                 // fleet | stealth |
//                                              // api_pollers | malformed |
//                                              // caching  (required)
//             "campaigns": 3,                  // fleet: /16s deployed
//             "bots": 350,                     // fleet: per campaign;
//                                              // others: total population
//             "slow_bots": 9,                  // fleet: sub-threshold
//                                              // members per campaign
//             "fleet_bots": 0,                 // api_pollers: campaign-IP
//                                              // flavour on top of `bots`
//             "ramp_days": 0.0,                // onboarding ramp: first
//                                              // sessions spread over this
//                                              // many days (0 = default
//                                              // stagger over one pause)
//             "gap_mean_s": 0.0,               // archetype overrides;
//             "session_len_mean": 0.0,         // 0 = keep the archetype
//             "pause_mean_s": 0.0,             // default
//             "lifetime_requests": 0,
//             "evasion": {                     // optional E13 capability
//                                              // block; page-scraper kinds
//                                              // only (fleet | stealth),
//                                              // and only the fleet's fast
//                                              // members evade — slow
//                                              // members stay archetypal
//               "p_asset_mimicry": 0.9,        // [0, 1]: page fetches
//                                              // followed by a static-asset
//                                              // camouflage fetch
//               "rotate_ua_per_session": true, // fresh browser UA each
//                                              // session
//               "rotate_ip_per_session": true, // fresh clean address each
//                                              // session
//               "human_think_time": false      // pace in-session gaps like
//                                              // the human log-normal
//                                              // think-time distribution
//             }
//           }
//         ]
//       }
//     ]
//   }
//
// Unknown members are ignored (forward compatibility); a wrong "schema",
// missing vhosts, a bad attack kind, or out-of-range numerics fail the
// load with a one-line diagnostic. Round-trip is loss-free: load(dump(s))
// compares equal to s for every valid spec.
//
// ## Lazy-actor contract
//
// Population counts in a spec are *distinct actors over the run*, not live
// objects: the WorkloadEngine materializes each scripted actor on its first
// scheduled arrival and retires it (frees its state, recycles its slot) as
// soon as its lifetime ends, so a partition's resident memory tracks the
// concurrently-active population, not the spec totals. This is a pure
// implementation detail with a hard guarantee: for any spec, lazy and eager
// materialization produce byte-identical output at every thread count
// (per-actor RNG streams are seeded by global ordinal, and the event heap
// orders by time only, so slot identity never influences emission order).
// Megasite-class specs (>= 1M distinct actors)
// rely on this plus `site.zipf_table_cap` to keep memory flat.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "httplog/timestamp.hpp"
#include "traffic/site.hpp"

namespace divscrape::workload {

/// Benign human load of one vhost, with an optional flash-crowd surge —
/// the benign burst a detector must NOT alert on.
struct HumanMix {
  double arrivals_per_s = 0.0253;   ///< session arrivals/s at scale 1.0
  double diurnal_amplitude = 0.55;  ///< day/night modulation in [0, 1)
  double in_botnet_subnet_p = 0.0015;
  double surge_start_day = -1.0;    ///< days after start; < 0 disables
  double surge_duration_h = 0.0;
  double surge_multiplier = 1.0;

  friend bool operator==(const HumanMix& a, const HumanMix& b) noexcept {
    return a.arrivals_per_s == b.arrivals_per_s &&
           a.diurnal_amplitude == b.diurnal_amplitude &&
           a.in_botnet_subnet_p == b.in_botnet_subnet_p &&
           a.surge_start_day == b.surge_start_day &&
           a.surge_duration_h == b.surge_duration_h &&
           a.surge_multiplier == b.surge_multiplier;
  }
  friend bool operator!=(const HumanMix& a, const HumanMix& b) noexcept {
    return !(a == b);
  }
};

/// The five scraper archetypes (same behavioural models as the paper
/// reproduction; see traffic/scrapers.hpp).
enum class AttackKind : std::uint8_t {
  kFleet,       ///< aggressive fare-scraping botnet campaigns
  kStealth,     ///< low-and-slow bots on clean residential addresses
  kApiPollers,  ///< availability-API hammering (204-heavy)
  kMalformed,   ///< buggy scraper stacks (400-heavy)
  kCaching,     ///< conditional-GET re-fetchers (304-heavy)
};

[[nodiscard]] std::string_view to_string(AttackKind kind) noexcept;
[[nodiscard]] std::optional<AttackKind> attack_kind_from(
    std::string_view name) noexcept;

/// E13 evasion capabilities of one attack wave. Only the page-scraper
/// kinds (fleet, stealth) accept an evasion block — asset mimicry and
/// think-time shaping are page-fetch behaviours — and within a fleet only
/// the fast members evade (slow members are sub-threshold by design).
/// Plumbing is pure field assignment onto the archetype BotProfile: no
/// extra RNG draws, so the engine's byte-identity contract is untouched.
struct EvasionSpec {
  /// Probability that a page fetch is followed by a static-asset
  /// camouflage fetch (defeats asset-starvation signals). In [0, 1].
  double p_asset_mimicry = 0.0;
  bool rotate_ua_per_session = false;  ///< fresh browser UA each session
  bool rotate_ip_per_session = false;  ///< fresh clean address each session
  /// Pace in-session gaps like the human log-normal think-time
  /// distribution instead of the archetype's timing.
  bool human_think_time = false;

  friend bool operator==(const EvasionSpec& a, const EvasionSpec& b) noexcept {
    return a.p_asset_mimicry == b.p_asset_mimicry &&
           a.rotate_ua_per_session == b.rotate_ua_per_session &&
           a.rotate_ip_per_session == b.rotate_ip_per_session &&
           a.human_think_time == b.human_think_time;
  }
  friend bool operator!=(const EvasionSpec& a, const EvasionSpec& b) noexcept {
    return !(a == b);
  }
};

/// One attack wave in a vhost's mix. Population counts are at scale 1.0;
/// the spec-level `scale` multiplies them (minimum 1 once nonzero).
struct AttackSpec {
  AttackKind kind = AttackKind::kFleet;
  int campaigns = 1;   ///< fleet only: number of /16 campaigns
  int bots = 0;        ///< fleet: fast members per campaign; others: total
  int slow_bots = 0;   ///< fleet only: sub-threshold members per campaign
  int fleet_bots = 0;  ///< api_pollers only: campaign-IP flavour
  /// Onboarding ramp: first sessions spread uniformly over this many days
  /// (a growing campaign). 0 keeps the archetype stagger (one pause).
  double ramp_days = 0.0;
  // Archetype overrides; 0 keeps the archetype default.
  double gap_mean_s = 0.0;
  double session_len_mean = 0.0;
  double pause_mean_s = 0.0;
  std::uint64_t lifetime_requests = 0;
  /// E13 capabilities; absent = no evasion (and no bytes in the JSON).
  std::optional<EvasionSpec> evasion;

  friend bool operator==(const AttackSpec& a, const AttackSpec& b) noexcept {
    return a.kind == b.kind && a.campaigns == b.campaigns && a.bots == b.bots &&
           a.slow_bots == b.slow_bots && a.fleet_bots == b.fleet_bots &&
           a.ramp_days == b.ramp_days && a.gap_mean_s == b.gap_mean_s &&
           a.session_len_mean == b.session_len_mean &&
           a.pause_mean_s == b.pause_mean_s &&
           a.lifetime_requests == b.lifetime_requests &&
           a.evasion == b.evasion;
  }
  friend bool operator!=(const AttackSpec& a, const AttackSpec& b) noexcept {
    return !(a == b);
  }
};

/// One virtual host: its own site model, benign population and attack mix.
struct VhostSpec {
  std::string name = "www";
  traffic::SiteModel::Config site;
  HumanMix humans;
  int crawlers = 3;
  double crawler_gap_mean_s = 250.0;
  int monitors = 2;
  double monitor_period_s = 120.0;
  std::vector<AttackSpec> attacks;

  friend bool operator==(const VhostSpec& a, const VhostSpec& b) noexcept;
  friend bool operator!=(const VhostSpec& a, const VhostSpec& b) noexcept {
    return !(a == b);
  }
};

/// A complete declarative workload. See the schema comment above.
struct ScenarioSpec {
  std::string name = "custom";
  std::uint64_t seed = 20180311;
  httplog::Timestamp start = httplog::Timestamp::from_civil(2018, 3, 11);
  double duration_days = 8.0;
  double scale = 1.0;
  std::vector<VhostSpec> vhosts;

  [[nodiscard]] httplog::Timestamp end() const noexcept {
    return start + static_cast<std::int64_t>(duration_days *
                                             httplog::kMicrosPerDay);
  }

  /// Serializes the complete spec (schema divscrape.scenario.v1).
  [[nodiscard]] std::string to_json() const;
  /// Parses and validates; nullopt (and a one-line reason in `error`, when
  /// non-null) on malformed JSON, a schema mismatch or invalid values.
  [[nodiscard]] static std::optional<ScenarioSpec> from_json(
      std::string_view json, std::string* error = nullptr);

  /// File convenience wrappers around to_json()/from_json().
  [[nodiscard]] bool save(const std::string& path) const;
  [[nodiscard]] static std::optional<ScenarioSpec> load(
      const std::string& path, std::string* error = nullptr);

  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) noexcept;
  friend bool operator!=(const ScenarioSpec& a, const ScenarioSpec& b) noexcept {
    return !(a == b);
  }
};

}  // namespace divscrape::workload
