// Key-value configuration: lets operators run experiments from a plain
// text file instead of recompiling. Format is one dotted key per line:
//
//   # comment
//   scenario.scale = 0.25
//   sentinel.burst_limit = 25
//   arcane.min_requests = 10
//
// Keys no accessor read are listed by unconsumed(), so a caller can reject
// them (the CLI exits 2 on any key its command does not read); appliers
// exist for both reproduced detectors' configs. The scenario itself is a
// workload::ScenarioSpec: `scenario.scale` is the one scenario key, read by
// the CLI; anything else is edited in a spec file (`--dump-spec`).
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"

namespace divscrape::core {

/// Parsed key=value store with typed accessors.
class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  /// Parses the stream; returns false (and records errors) on malformed
  /// lines, but keeps every line it could parse.
  bool parse(std::istream& in);

  /// Parses "key=value" command-line overrides (no spaces required).
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

  /// Keys present in the store but not consumed by any applier call.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> errors_;
};

/// Applies "sentinel.*" keys onto a SentinelConfig.
void apply_sentinel_config(const KeyValueConfig& config,
                           detectors::SentinelConfig& sentinel);

/// Applies "arcane.*" keys onto an ArcaneConfig.
void apply_arcane_config(const KeyValueConfig& config,
                         detectors::ArcaneConfig& arcane);

}  // namespace divscrape::core
