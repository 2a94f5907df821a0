#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace divscrape::core {

namespace {

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return std::string(text.substr(begin, end - begin));
}

}  // namespace

bool KeyValueConfig::parse(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  bool clean = true;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      errors_.push_back("line " + std::to_string(line_no) + ": missing '='");
      clean = false;
      continue;
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      errors_.push_back("line " + std::to_string(line_no) + ": empty key");
      clean = false;
      continue;
    }
    values_[key] = value;
  }
  return clean;
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  values_[trim(key)] = trim(value);
}

std::optional<std::string> KeyValueConfig::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  consumed_[key] = true;
  return it->second;
}

double KeyValueConfig::get_double(const std::string& key,
                                  double fallback) const {
  const auto text = get(key);
  if (!text) return fallback;
  try {
    return std::stod(*text);
  } catch (...) {
    return fallback;
  }
}

std::int64_t KeyValueConfig::get_int(const std::string& key,
                                     std::int64_t fallback) const {
  const auto text = get(key);
  if (!text) return fallback;
  std::int64_t value = 0;
  const auto* begin = text->data();
  const auto* end = begin + text->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  return (ec == std::errc{} && ptr == end) ? value : fallback;
}

bool KeyValueConfig::get_bool(const std::string& key, bool fallback) const {
  const auto text = get(key);
  if (!text) return fallback;
  std::string lower = *text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
    return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
    return false;
  return fallback;
}

std::vector<std::string> KeyValueConfig::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    const auto it = consumed_.find(key);
    if (it == consumed_.end() || !it->second) out.push_back(key);
  }
  return out;
}

void apply_sentinel_config(const KeyValueConfig& config,
                           detectors::SentinelConfig& sentinel) {
  sentinel.burst_limit = static_cast<int>(
      config.get_int("sentinel.burst_limit", sentinel.burst_limit));
  sentinel.burst_window_s =
      config.get_double("sentinel.burst_window_s", sentinel.burst_window_s);
  sentinel.sustained_limit = static_cast<int>(
      config.get_int("sentinel.sustained_limit", sentinel.sustained_limit));
  sentinel.sustained_window_s = config.get_double(
      "sentinel.sustained_window_s", sentinel.sustained_window_s);
  sentinel.reputation_ttl_s = config.get_double("sentinel.reputation_ttl_s",
                                                sentinel.reputation_ttl_s);
  sentinel.subnet_flag_threshold = static_cast<int>(
      config.get_int("sentinel.subnet_flag_threshold",
                     sentinel.subnet_flag_threshold));
  sentinel.enable_reputation = config.get_bool("sentinel.enable_reputation",
                                               sentinel.enable_reputation);
  sentinel.enable_subnet_escalation =
      config.get_bool("sentinel.enable_subnet_escalation",
                      sentinel.enable_subnet_escalation);
  sentinel.enable_fingerprinting =
      config.get_bool("sentinel.enable_fingerprinting",
                      sentinel.enable_fingerprinting);
}

void apply_arcane_config(const KeyValueConfig& config,
                         detectors::ArcaneConfig& arcane) {
  arcane.window_s = config.get_double("arcane.window_s", arcane.window_s);
  arcane.min_requests = static_cast<int>(
      config.get_int("arcane.min_requests", arcane.min_requests));
  arcane.alert_threshold =
      config.get_double("arcane.alert_threshold", arcane.alert_threshold);
  arcane.volume_high = static_cast<int>(
      config.get_int("arcane.volume_high", arcane.volume_high));
  arcane.volume_medium = static_cast<int>(
      config.get_int("arcane.volume_medium", arcane.volume_medium));
  arcane.declared_bot_grace = static_cast<int>(config.get_int(
      "arcane.declared_bot_grace", arcane.declared_bot_grace));
}

}  // namespace divscrape::core
