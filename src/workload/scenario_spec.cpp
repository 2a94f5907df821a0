#include "workload/scenario_spec.hpp"

#include <cstdio>

#include "core/json.hpp"
#include "core/json_parse.hpp"
#include "util/atomic_file.hpp"

namespace divscrape::workload {

namespace {

constexpr std::string_view kSchema = "divscrape.scenario.v1";

bool set_error(std::string* error, std::string why) {
  if (error) *error = std::move(why);
  return false;
}

/// Parses "YYYY-MM-DD" into midnight UTC; nullopt on anything else.
std::optional<httplog::Timestamp> parse_date(std::string_view text) {
  int year = 0, month = 0, day = 0;
  char tail = 0;
  const auto n = std::sscanf(std::string(text).c_str(), "%4d-%2d-%2d%c",
                             &year, &month, &day, &tail);
  if (n != 3 || year < 1970 || month < 1 || month > 12 || day < 1 || day > 31)
    return std::nullopt;
  return httplog::Timestamp::from_civil(year, month, day);
}

void write_site(core::JsonWriter& json,
                const traffic::SiteModel::Config& site) {
  json.begin_object();
  json.key("catalogue_size").value(std::uint64_t{site.catalogue_size});
  json.key("offer_zipf_s").value_exact(site.offer_zipf_s);
  json.key("city_pairs").value(std::uint64_t{site.city_pairs});
  json.key("asset_count").value(std::uint64_t{site.asset_count});
  json.key("api_no_content_p").value_exact(site.api_no_content_p);
  json.key("server_error_p").value_exact(site.server_error_p);
  json.key("zipf_table_cap").value(std::uint64_t{site.zipf_table_cap});
  json.end_object();
}

void write_humans(core::JsonWriter& json, const HumanMix& humans) {
  json.begin_object();
  json.key("arrivals_per_s").value_exact(humans.arrivals_per_s);
  json.key("diurnal_amplitude").value_exact(humans.diurnal_amplitude);
  json.key("in_botnet_subnet_p").value_exact(humans.in_botnet_subnet_p);
  json.key("surge_start_day").value_exact(humans.surge_start_day);
  json.key("surge_duration_h").value_exact(humans.surge_duration_h);
  json.key("surge_multiplier").value_exact(humans.surge_multiplier);
  json.end_object();
}

void write_attack(core::JsonWriter& json, const AttackSpec& attack) {
  json.begin_object();
  json.key("kind").value(to_string(attack.kind));
  json.key("campaigns").value(attack.campaigns);
  json.key("bots").value(attack.bots);
  json.key("slow_bots").value(attack.slow_bots);
  json.key("fleet_bots").value(attack.fleet_bots);
  json.key("ramp_days").value_exact(attack.ramp_days);
  json.key("gap_mean_s").value_exact(attack.gap_mean_s);
  json.key("session_len_mean").value_exact(attack.session_len_mean);
  json.key("pause_mean_s").value_exact(attack.pause_mean_s);
  json.key("lifetime_requests").value(attack.lifetime_requests);
  // Emitted only when present: pre-evasion specs keep their exact bytes.
  if (attack.evasion) {
    const auto& evasion = *attack.evasion;
    json.key("evasion").begin_object();
    json.key("p_asset_mimicry").value_exact(evasion.p_asset_mimicry);
    json.key("rotate_ua_per_session").value(evasion.rotate_ua_per_session);
    json.key("rotate_ip_per_session").value(evasion.rotate_ip_per_session);
    json.key("human_think_time").value(evasion.human_think_time);
    json.end_object();
  }
  json.end_object();
}

bool read_site(const core::JsonValue& v, traffic::SiteModel::Config& site,
               std::string* error) {
  site.catalogue_size = static_cast<std::size_t>(
      v.u64_or("catalogue_size", site.catalogue_size));
  site.offer_zipf_s = v.number_or("offer_zipf_s", site.offer_zipf_s);
  site.city_pairs =
      static_cast<std::size_t>(v.u64_or("city_pairs", site.city_pairs));
  site.asset_count =
      static_cast<std::size_t>(v.u64_or("asset_count", site.asset_count));
  site.api_no_content_p =
      v.number_or("api_no_content_p", site.api_no_content_p);
  site.server_error_p = v.number_or("server_error_p", site.server_error_p);
  site.zipf_table_cap = static_cast<std::size_t>(
      v.u64_or("zipf_table_cap", site.zipf_table_cap));
  if (site.catalogue_size < 1)
    return set_error(error, "site.catalogue_size must be >= 1");
  if (site.city_pairs < 1)
    return set_error(error, "site.city_pairs must be >= 1");
  if (site.asset_count < 1)
    return set_error(error, "site.asset_count must be >= 1");
  return true;
}

bool read_humans(const core::JsonValue& v, HumanMix& humans,
                 std::string* error) {
  humans.arrivals_per_s = v.number_or("arrivals_per_s", humans.arrivals_per_s);
  humans.diurnal_amplitude =
      v.number_or("diurnal_amplitude", humans.diurnal_amplitude);
  humans.in_botnet_subnet_p =
      v.number_or("in_botnet_subnet_p", humans.in_botnet_subnet_p);
  humans.surge_start_day = v.number_or("surge_start_day", humans.surge_start_day);
  humans.surge_duration_h =
      v.number_or("surge_duration_h", humans.surge_duration_h);
  humans.surge_multiplier =
      v.number_or("surge_multiplier", humans.surge_multiplier);
  if (humans.arrivals_per_s < 0.0)
    return set_error(error, "humans.arrivals_per_s must be >= 0");
  if (humans.diurnal_amplitude < 0.0 || humans.diurnal_amplitude >= 1.0)
    return set_error(error, "humans.diurnal_amplitude must be in [0, 1)");
  if (humans.surge_multiplier < 0.0)
    return set_error(error, "humans.surge_multiplier must be >= 0");
  return true;
}

bool read_attack(const core::JsonValue& v, AttackSpec& attack,
                 std::string* error) {
  const auto* kind = v.find("kind");
  if (!kind || !kind->is_string())
    return set_error(error, "attack entry is missing its \"kind\"");
  const auto parsed = attack_kind_from(kind->as_string_view());
  if (!parsed) {
    return set_error(error, "unknown attack kind \"" +
                                std::string(kind->as_string_view()) + "\"");
  }
  attack.kind = *parsed;
  attack.campaigns =
      static_cast<int>(v.int_or("campaigns", attack.campaigns));
  attack.bots = static_cast<int>(v.int_or("bots", attack.bots));
  attack.slow_bots = static_cast<int>(v.int_or("slow_bots", attack.slow_bots));
  attack.fleet_bots =
      static_cast<int>(v.int_or("fleet_bots", attack.fleet_bots));
  attack.ramp_days = v.number_or("ramp_days", attack.ramp_days);
  attack.gap_mean_s = v.number_or("gap_mean_s", attack.gap_mean_s);
  attack.session_len_mean =
      v.number_or("session_len_mean", attack.session_len_mean);
  attack.pause_mean_s = v.number_or("pause_mean_s", attack.pause_mean_s);
  attack.lifetime_requests = v.u64_or("lifetime_requests", 0);
  if (attack.campaigns < 0 || attack.bots < 0 || attack.slow_bots < 0 ||
      attack.fleet_bots < 0)
    return set_error(error, "attack population counts must be >= 0");
  if (attack.ramp_days < 0.0)
    return set_error(error, "attack ramp_days must be >= 0");
  if (attack.kind == AttackKind::kFleet && attack.campaigns < 1)
    return set_error(error, "fleet attacks need campaigns >= 1");
  if (const auto* evasion = v.find("evasion")) {
    if (!evasion->is_object())
      return set_error(error, "attack \"evasion\" must be an object");
    if (attack.kind != AttackKind::kFleet &&
        attack.kind != AttackKind::kStealth) {
      return set_error(error,
                       "evasion requires a page-scraper attack kind "
                       "(fleet or stealth), not \"" +
                           std::string(to_string(attack.kind)) + "\"");
    }
    EvasionSpec parsed;
    parsed.p_asset_mimicry =
        evasion->number_or("p_asset_mimicry", parsed.p_asset_mimicry);
    parsed.rotate_ua_per_session = evasion->bool_or(
        "rotate_ua_per_session", parsed.rotate_ua_per_session);
    parsed.rotate_ip_per_session = evasion->bool_or(
        "rotate_ip_per_session", parsed.rotate_ip_per_session);
    parsed.human_think_time =
        evasion->bool_or("human_think_time", parsed.human_think_time);
    if (!(parsed.p_asset_mimicry >= 0.0 && parsed.p_asset_mimicry <= 1.0))
      return set_error(error, "evasion.p_asset_mimicry must be in [0, 1]");
    attack.evasion = parsed;
  }
  return true;
}

bool read_vhost(const core::JsonValue& v, VhostSpec& vhost,
                std::string* error) {
  vhost.name = v.string_or("name", vhost.name);
  if (vhost.name.empty())
    return set_error(error, "vhost name must be non-empty");
  if (const auto* site = v.find("site")) {
    if (!read_site(*site, vhost.site, error)) return false;
  }
  if (const auto* humans = v.find("humans")) {
    if (!read_humans(*humans, vhost.humans, error)) return false;
  }
  vhost.crawlers = static_cast<int>(v.int_or("crawlers", vhost.crawlers));
  vhost.crawler_gap_mean_s =
      v.number_or("crawler_gap_mean_s", vhost.crawler_gap_mean_s);
  vhost.monitors = static_cast<int>(v.int_or("monitors", vhost.monitors));
  vhost.monitor_period_s =
      v.number_or("monitor_period_s", vhost.monitor_period_s);
  if (vhost.crawlers < 0 || vhost.monitors < 0)
    return set_error(error, "vhost population counts must be >= 0");
  if (const auto* attacks = v.find("attacks")) {
    if (!attacks->is_array())
      return set_error(error, "vhost \"attacks\" must be an array");
    for (const auto& entry : attacks->array()) {
      AttackSpec attack;
      if (!read_attack(entry, attack, error)) return false;
      vhost.attacks.push_back(attack);
    }
  }
  return true;
}

}  // namespace

std::string_view to_string(AttackKind kind) noexcept {
  switch (kind) {
    case AttackKind::kFleet: return "fleet";
    case AttackKind::kStealth: return "stealth";
    case AttackKind::kApiPollers: return "api_pollers";
    case AttackKind::kMalformed: return "malformed";
    case AttackKind::kCaching: return "caching";
  }
  return "?";
}

std::optional<AttackKind> attack_kind_from(std::string_view name) noexcept {
  if (name == "fleet") return AttackKind::kFleet;
  if (name == "stealth") return AttackKind::kStealth;
  if (name == "api_pollers") return AttackKind::kApiPollers;
  if (name == "malformed") return AttackKind::kMalformed;
  if (name == "caching") return AttackKind::kCaching;
  return std::nullopt;
}

bool operator==(const VhostSpec& a, const VhostSpec& b) noexcept {
  return a.name == b.name &&
         a.site.catalogue_size == b.site.catalogue_size &&
         a.site.offer_zipf_s == b.site.offer_zipf_s &&
         a.site.city_pairs == b.site.city_pairs &&
         a.site.asset_count == b.site.asset_count &&
         a.site.api_no_content_p == b.site.api_no_content_p &&
         a.site.server_error_p == b.site.server_error_p &&
         a.site.zipf_table_cap == b.site.zipf_table_cap &&
         a.humans == b.humans && a.crawlers == b.crawlers &&
         a.crawler_gap_mean_s == b.crawler_gap_mean_s &&
         a.monitors == b.monitors &&
         a.monitor_period_s == b.monitor_period_s && a.attacks == b.attacks;
}

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) noexcept {
  return a.name == b.name && a.seed == b.seed && a.start == b.start &&
         a.duration_days == b.duration_days && a.scale == b.scale &&
         a.vhosts == b.vhosts;
}

std::string ScenarioSpec::to_json() const {
  std::string out;
  core::JsonWriter json(out);
  json.begin_object();
  json.key("schema").value(kSchema);
  json.key("name").value(name);
  json.key("seed").value(seed);
  json.key("start_micros").value(std::int64_t{start.micros()});
  json.key("duration_days").value_exact(duration_days);
  json.key("scale").value_exact(scale);
  json.key("vhosts").begin_array();
  for (const auto& vhost : vhosts) {
    json.begin_object();
    json.key("name").value(vhost.name);
    json.key("site");
    write_site(json, vhost.site);
    json.key("humans");
    write_humans(json, vhost.humans);
    json.key("crawlers").value(vhost.crawlers);
    json.key("crawler_gap_mean_s").value_exact(vhost.crawler_gap_mean_s);
    json.key("monitors").value(vhost.monitors);
    json.key("monitor_period_s").value_exact(vhost.monitor_period_s);
    json.key("attacks").begin_array();
    for (const auto& attack : vhost.attacks) write_attack(json, attack);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return out;
}

std::optional<ScenarioSpec> ScenarioSpec::from_json(std::string_view json,
                                                    std::string* error) {
  std::string parse_error;
  const auto doc = core::parse_json(json, &parse_error);
  if (!doc) {
    set_error(error, "invalid JSON: " + parse_error);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    set_error(error, "spec root must be a JSON object");
    return std::nullopt;
  }
  const auto* schema = doc->find("schema");
  if (!schema || schema->as_string_view() != kSchema) {
    set_error(error, "missing or unsupported \"schema\" (want " +
                         std::string(kSchema) + ")");
    return std::nullopt;
  }

  ScenarioSpec spec;
  spec.vhosts.clear();
  spec.name = doc->string_or("name", spec.name);
  spec.seed = doc->u64_or("seed", spec.seed);
  if (const auto* micros = doc->find("start_micros")) {
    spec.start = httplog::Timestamp(micros->as_i64(spec.start.micros()));
  } else if (const auto* date = doc->find("start")) {
    const auto parsed = parse_date(date->as_string_view());
    if (!parsed) {
      set_error(error, "\"start\" must be a \"YYYY-MM-DD\" date");
      return std::nullopt;
    }
    spec.start = *parsed;
  }
  spec.duration_days = doc->number_or("duration_days", spec.duration_days);
  spec.scale = doc->number_or("scale", spec.scale);
  if (spec.name.empty()) {
    set_error(error, "\"name\" must be non-empty");
    return std::nullopt;
  }
  if (!(spec.duration_days > 0.0)) {
    set_error(error, "\"duration_days\" must be > 0");
    return std::nullopt;
  }
  if (!(spec.scale > 0.0)) {
    set_error(error, "\"scale\" must be > 0");
    return std::nullopt;
  }

  const auto* vhosts = doc->find("vhosts");
  if (!vhosts || !vhosts->is_array() || vhosts->array().empty()) {
    set_error(error, "\"vhosts\" must be a non-empty array");
    return std::nullopt;
  }
  for (const auto& entry : vhosts->array()) {
    VhostSpec vhost;
    if (!read_vhost(entry, vhost, error)) return std::nullopt;
    spec.vhosts.push_back(std::move(vhost));
  }
  return spec;
}

bool ScenarioSpec::save(const std::string& path) const {
  return util::write_file_atomic(path, to_json() + "\n");
}

std::optional<ScenarioSpec> ScenarioSpec::load(const std::string& path,
                                               std::string* error) {
  const auto text = util::read_file(path);
  if (!text) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  return from_json(*text, error);
}

}  // namespace divscrape::workload
