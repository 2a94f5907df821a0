#include "workload/catalog.hpp"

namespace divscrape::workload {

namespace {

AttackSpec fleet(int campaigns, int bots, int slow_bots) {
  AttackSpec attack;
  attack.kind = AttackKind::kFleet;
  attack.campaigns = campaigns;
  attack.bots = bots;
  attack.slow_bots = slow_bots;
  return attack;
}

AttackSpec stealth(int bots) {
  AttackSpec attack;
  attack.kind = AttackKind::kStealth;
  attack.bots = bots;
  return attack;
}

AttackSpec api_pollers(int clean_bots, int fleet_bots) {
  AttackSpec attack;
  attack.kind = AttackKind::kApiPollers;
  attack.bots = clean_bots;
  attack.fleet_bots = fleet_bots;
  return attack;
}

AttackSpec malformed(int bots) {
  AttackSpec attack;
  attack.kind = AttackKind::kMalformed;
  attack.bots = bots;
  return attack;
}

AttackSpec caching(int bots) {
  AttackSpec attack;
  attack.kind = AttackKind::kCaching;
  attack.bots = bots;
  return attack;
}

/// The paper-shaped deployment as a spec: one vhost, the calibrated
/// amadeus_like populations — the workload behind the paper's Tables 1-4
/// (`divscrape_cli tables`/`export`, the examples, the golden test).
ScenarioSpec make_amadeus_like() {
  ScenarioSpec spec;
  spec.name = "amadeus_like";
  VhostSpec www;
  www.attacks = {fleet(3, 350, 9), stealth(25), api_pollers(3, 2),
                 malformed(3), caching(2)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// A benign flash crowd: a sale/press spike multiplies human arrivals 40x
/// for two hours on day 1, over an ordinary background attack mix. The
/// interesting question is the detectors' false-positive behaviour during
/// the surge, so the malicious population is deliberately modest.
ScenarioSpec make_flash_crowd() {
  ScenarioSpec spec;
  spec.name = "flash_crowd";
  spec.duration_days = 2.0;
  VhostSpec www;
  www.humans.arrivals_per_s = 0.06;
  www.humans.surge_start_day = 1.0;
  www.humans.surge_duration_h = 2.0;
  www.humans.surge_multiplier = 40.0;
  www.attacks = {fleet(1, 90, 4), caching(2)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// A scraping fleet onboarding over three days: four campaigns whose
/// members' first sessions are spread over the ramp, so pressure grows
/// from single probes to full sweep — the shape a SOC sees when a new
/// scraping-as-a-service customer targets the site.
ScenarioSpec make_scraper_fleet_ramp() {
  ScenarioSpec spec;
  spec.name = "scraper_fleet_ramp";
  spec.duration_days = 4.0;
  VhostSpec www;
  auto wave = fleet(4, 240, 6);
  wave.ramp_days = 3.0;
  wave.gap_mean_s = 0.5;
  www.attacks = {wave, caching(2)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// A patient, distributed campaign: hundreds of stealth bots on clean
/// residential addresses, human-like pacing, small sessions, two weeks of
/// runway — each bot stays under the behavioural floor while the campaign
/// extracts the catalogue. The paper's discussion names this the hardest
/// shape; the reproduction makes it a first-class workload.
ScenarioSpec make_low_and_slow() {
  ScenarioSpec spec;
  spec.name = "low_and_slow";
  spec.duration_days = 14.0;
  VhostSpec www;
  auto wave = stealth(320);
  wave.ramp_days = 4.0;
  wave.pause_mean_s = 10'800.0;
  wave.lifetime_requests = 1'200;
  www.attacks = {wave, malformed(1)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// Three vhosts of one estate: the main shop (big catalogue, fleet +
/// stealth pressure), the mobile/API host (small pages, API pollers), and
/// a partner/agency portal (tiny catalogue, buggy automation). Exercises
/// the multi-file merge end to end with genuinely different per-vhost
/// traffic shapes.
ScenarioSpec make_mixed_multi_vhost() {
  ScenarioSpec spec;
  spec.name = "mixed_multi_vhost";
  spec.duration_days = 3.0;

  VhostSpec www;
  www.name = "www";
  www.humans.arrivals_per_s = 0.04;
  www.attacks = {fleet(2, 260, 8), stealth(40)};

  VhostSpec mobile;
  mobile.name = "m";
  mobile.site.catalogue_size = 20'000;
  mobile.site.asset_count = 8;
  mobile.humans.arrivals_per_s = 0.02;
  mobile.crawlers = 1;
  mobile.attacks = {api_pollers(4, 3), caching(3)};

  VhostSpec agency;
  agency.name = "agency";
  agency.site.catalogue_size = 5'000;
  agency.site.city_pairs = 80;
  agency.humans.arrivals_per_s = 0.004;
  agency.crawlers = 0;
  agency.monitors = 1;
  agency.attacks = {malformed(4), stealth(10)};

  spec.vhosts = {std::move(www), std::move(mobile), std::move(agency)};
  return spec;
}

/// A production day at estate scale: four vhosts whose *distinct* actor
/// population crosses one million in 24 simulated hours. The malicious mix
/// is churn-shaped — short-lived hit-and-run bots (small lifetime_requests)
/// arriving throughout the day — so the concurrently-live population stays
/// in the low tens of thousands while the distinct population is ~1M;
/// that, plus capped Zipf tables over multi-million-entry catalogues, is
/// what EngineConfig::lazy_actors turns into flat memory. This is the
/// chaos-soak workload (`divscrape_cli soak`); run it at --scale 0.01 for
/// a CI-sized smoke.
ScenarioSpec make_megasite() {
  ScenarioSpec spec;
  spec.name = "megasite";
  spec.duration_days = 1.0;

  VhostSpec www;
  www.name = "www";
  www.site.catalogue_size = 2'000'000;
  www.site.zipf_table_cap = 65'536;
  www.humans.arrivals_per_s = 0.25;
  www.crawlers = 6;
  www.monitors = 4;
  auto churn = fleet(6, 60'000, 2'000);
  churn.ramp_days = 0.9;         // arrivals spread across the whole day
  churn.lifetime_requests = 12;  // hit-and-run: retire after one burst
  churn.gap_mean_s = 2.0;
  auto residential = stealth(280'000);
  residential.ramp_days = 0.9;
  residential.lifetime_requests = 5;
  www.attacks = {churn, residential};

  VhostSpec m;
  m.name = "m";
  m.site.catalogue_size = 400'000;
  m.site.zipf_table_cap = 32'768;
  m.site.asset_count = 8;
  m.humans.arrivals_per_s = 0.12;
  m.crawlers = 2;
  auto pollers = api_pollers(60'000, 400);
  pollers.ramp_days = 0.9;
  pollers.lifetime_requests = 10;
  auto cache_bust = caching(40'000);
  cache_bust.ramp_days = 0.9;
  cache_bust.lifetime_requests = 8;
  m.attacks = {pollers, cache_bust};

  VhostSpec api;
  api.name = "api";
  api.site.catalogue_size = 1'000'000;
  api.site.zipf_table_cap = 65'536;
  api.humans.arrivals_per_s = 0.02;
  api.crawlers = 0;
  api.monitors = 8;
  auto sweep = fleet(4, 45'000, 1'500);
  sweep.ramp_days = 0.9;
  sweep.lifetime_requests = 10;
  sweep.gap_mean_s = 1.0;
  api.attacks = {sweep};

  VhostSpec agency;
  agency.name = "agency";
  agency.site.catalogue_size = 50'000;
  agency.site.zipf_table_cap = 16'384;
  agency.site.city_pairs = 80;
  agency.humans.arrivals_per_s = 0.01;
  agency.crawlers = 1;
  agency.monitors = 2;
  auto buggy = malformed(30'000);
  buggy.ramp_days = 0.9;
  buggy.lifetime_requests = 5;
  auto fraud = stealth(60'000);
  fraud.ramp_days = 0.9;
  fraud.lifetime_requests = 5;
  agency.attacks = {buggy, fraud};

  spec.vhosts = {std::move(www), std::move(m), std::move(api),
                 std::move(agency)};
  return spec;
}

// --- red tier: evasion campaigns (experiment E13) ------------------------
//
// Each red entry is a blue-team scenario with the adversary upgraded: the
// same archetypes, volumes and ramp shapes, plus an `evasion` block that
// buys specific E13 capabilities. bench_detection runs every one of these
// through the batched replay seam and scores the outcome per detector and
// for the 1oo2 ensemble (BENCH_detection.json).

/// A fleet that re-identifies every session: fresh browser UA and fresh
/// clean address per session, plus asset mimicry — the "rotating
/// residential proxy" product shape. Defeats per-(ip,ua) state carried
/// across sessions; in-session behaviour is unchanged.
ScenarioSpec make_rotating_fleet() {
  ScenarioSpec spec;
  spec.name = "rotating_fleet";
  spec.duration_days = 2.0;
  VhostSpec www;
  www.humans.arrivals_per_s = 0.04;
  auto wave = fleet(2, 160, 5);
  wave.session_len_mean = 160.0;
  wave.pause_mean_s = 7'200.0;
  EvasionSpec evasion;
  evasion.p_asset_mimicry = 0.9;
  evasion.rotate_ua_per_session = true;
  evasion.rotate_ip_per_session = true;
  wave.evasion = evasion;
  www.attacks = {wave, caching(2)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// Stealth bots doing their best human impression: log-normal think-time
/// pacing at the human median, near-certain asset fetches, a fresh browser
/// UA each session. The per-bot request stream is nearly indistinguishable
/// from a shopper; only aggregate shape (sweep coverage, session count)
/// remains.
ScenarioSpec make_human_mimic() {
  ScenarioSpec spec;
  spec.name = "human_mimic";
  spec.duration_days = 3.0;
  VhostSpec www;
  www.humans.arrivals_per_s = 0.03;
  auto wave = stealth(80);
  wave.ramp_days = 1.0;
  wave.lifetime_requests = 2'400;
  EvasionSpec evasion;
  evasion.p_asset_mimicry = 0.85;
  evasion.rotate_ua_per_session = true;
  evasion.human_think_time = true;
  wave.evasion = evasion;
  www.attacks = {wave, malformed(1)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// low_and_slow upgraded with distribution across the public /8s: every
/// session moves to a fresh clean address (the clean pool is uniform over
/// public /8 space), so no subnet ever accumulates enough history to
/// escalate. The hardest shape in the paper's discussion, now with the
/// counter-measure it predicted.
ScenarioSpec make_distributed_low_and_slow() {
  ScenarioSpec spec;
  spec.name = "distributed_low_and_slow";
  spec.duration_days = 7.0;
  VhostSpec www;
  auto wave = stealth(320);
  wave.ramp_days = 2.0;
  wave.pause_mean_s = 10'800.0;
  wave.lifetime_requests = 1'200;
  EvasionSpec evasion;
  evasion.p_asset_mimicry = 0.7;
  evasion.rotate_ip_per_session = true;
  wave.evasion = evasion;
  www.attacks = {wave, malformed(1)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// The E13 ladder: one fixed fleet campaign, evasion capabilities added
/// one per tier. e0 is the unevaded baseline (the CI-gated floor);
/// each following tier keeps everything below it.
///
///   e0  baseline fleet, no evasion block
///   e1  + asset mimicry 0.9
///   e2  + per-session UA rotation
///   e3  + per-session IP rotation
///   e4  + human think-time pacing
ScenarioSpec make_evasion_ladder(int level) {
  ScenarioSpec spec;
  spec.name = "evasion_ladder_e" + std::to_string(level);
  spec.duration_days = 1.0;
  VhostSpec www;
  www.humans.arrivals_per_s = 0.03;
  auto wave = fleet(2, 120, 4);
  wave.session_len_mean = 200.0;
  wave.pause_mean_s = 5'400.0;
  if (level >= 1) {
    EvasionSpec evasion;
    evasion.p_asset_mimicry = 0.9;
    evasion.rotate_ua_per_session = level >= 2;
    evasion.rotate_ip_per_session = level >= 3;
    evasion.human_think_time = level >= 4;
    wave.evasion = evasion;
  }
  www.attacks = {wave, caching(2)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

/// A one-hour miniature with every population represented, so unit tests
/// and CI smokes finish in milliseconds yet still produce alerts from both
/// detectors.
ScenarioSpec make_smoke() {
  ScenarioSpec spec;
  spec.name = "smoke";
  spec.duration_days = 1.0 / 24.0;
  VhostSpec www;
  www.site.catalogue_size = 2'000;
  www.humans.arrivals_per_s = 0.02;
  www.crawlers = 1;
  www.monitors = 1;
  www.attacks = {fleet(1, 12, 2), stealth(2), api_pollers(1, 1),
                 malformed(1), caching(1)};
  spec.vhosts.push_back(std::move(www));
  return spec;
}

}  // namespace

const std::vector<CatalogEntry>& catalog() {
  static const std::vector<CatalogEntry> entries = {
      {"amadeus_like",
       "the paper-shaped 8-day single-vhost reproduction workload"},
      {"flash_crowd",
       "benign 40x human surge over a modest attack mix (FP stressor)"},
      {"scraper_fleet_ramp",
       "four fleets onboarding over 3 days, probe to full sweep"},
      {"low_and_slow",
       "320 stealth bots, clean IPs, two patient weeks (hardest shape)"},
      {"mixed_multi_vhost",
       "shop + mobile API + agency portal, distinct sites and mixes"},
      {"megasite",
       "four-vhost production day, >1M distinct actors (chaos-soak scale)"},
      {"smoke", "one-hour miniature of every population, for CI and tests"},
      {"rotating_fleet",
       "red: fleet behind rotating UA/IP identities + asset mimicry"},
      {"human_mimic",
       "red: stealth bots pacing and fetching like human shoppers"},
      {"distributed_low_and_slow",
       "red: patient stealth campaign hopping across the public /8s"},
      {"evasion_ladder_e0",
       "red ladder tier 0: unevaded baseline fleet (the CI-gated floor)"},
      {"evasion_ladder_e1", "red ladder tier 1: + asset mimicry"},
      {"evasion_ladder_e2", "red ladder tier 2: + per-session UA rotation"},
      {"evasion_ladder_e3", "red ladder tier 3: + per-session IP rotation"},
      {"evasion_ladder_e4", "red ladder tier 4: + human think-time pacing"},
  };
  return entries;
}

std::optional<ScenarioSpec> catalog_entry(std::string_view name,
                                          double scale) {
  std::optional<ScenarioSpec> spec;
  if (name == "amadeus_like") spec = make_amadeus_like();
  if (name == "flash_crowd") spec = make_flash_crowd();
  if (name == "scraper_fleet_ramp") spec = make_scraper_fleet_ramp();
  if (name == "low_and_slow") spec = make_low_and_slow();
  if (name == "mixed_multi_vhost") spec = make_mixed_multi_vhost();
  if (name == "megasite") spec = make_megasite();
  if (name == "smoke") spec = make_smoke();
  if (name == "rotating_fleet") spec = make_rotating_fleet();
  if (name == "human_mimic") spec = make_human_mimic();
  if (name == "distributed_low_and_slow") spec = make_distributed_low_and_slow();
  if (name.rfind("evasion_ladder_e", 0) == 0 && name.size() == 17 &&
      name[16] >= '0' && name[16] <= '4') {
    spec = make_evasion_ladder(name[16] - '0');
  }
  if (spec) spec->scale = scale;
  return spec;
}

}  // namespace divscrape::workload
