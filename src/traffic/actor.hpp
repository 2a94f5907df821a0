// Actor taxonomy and the simulation interface every traffic source
// implements.
//
// The simulated population replaces the paper's (proprietary) Amadeus
// production traffic. Each actor is a client with its own behaviour model;
// the generator interleaves their emissions into one time-ordered stream,
// exactly like requests interleave in a shared access log.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "httplog/record.hpp"

namespace divscrape::traffic {

/// Fine-grained actor classes. The first three are benign; the scraper
/// family members are behavioural archetypes chosen to exercise different
/// detector capabilities (see DESIGN.md section 2).
enum class ActorClass : std::uint8_t {
  kHuman,             ///< interactive browser user
  kSearchCrawler,     ///< declared, robots.txt-respecting crawler
  kMonitor,           ///< uptime/monitoring probe
  kScraperAggressive, ///< high-rate fare-scraping botnet member
  kScraperStealth,    ///< low-and-slow scraper behind residential proxies
  kScraperApi,        ///< availability-API poller (many 204s)
  kScraperMalformed,  ///< buggy scraper emitting bad requests (400s)
  kScraperCaching,    ///< conditional-GET scraper (many 304s)
};

[[nodiscard]] std::string_view to_string(ActorClass c) noexcept;

/// Ground-truth mapping used to label emitted records.
[[nodiscard]] httplog::Truth truth_of(ActorClass c) noexcept;

[[nodiscard]] constexpr bool is_scraper(ActorClass c) noexcept {
  return c >= ActorClass::kScraperAggressive;
}

/// Outcome of one actor step.
struct StepResult {
  /// Whether `out` was filled with a record for this step.
  bool emitted = false;
  /// Absolute time of the actor's next step; nullopt when the actor is done
  /// (it is then destroyed by the generator).
  std::optional<httplog::Timestamp> next;
};

/// A traffic source. The generator calls step() when the actor's scheduled
/// time arrives; the actor fills at most one record (timestamped `now`) and
/// schedules its next step.
class Actor {
 public:
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] virtual ActorClass actor_class() const noexcept = 0;

  /// Performs the step due at `now`.
  [[nodiscard]] virtual StepResult step(httplog::Timestamp now,
                                        httplog::LogRecord& out) = 0;

 protected:
  Actor() = default;
};

}  // namespace divscrape::traffic
