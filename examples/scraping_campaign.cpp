// Anatomy of a price-scraping campaign: a single aggressive botnet fleet
// ramps up against otherwise-benign traffic; the example tracks, hour by
// hour, how each detector's coverage of the fleet evolves — the
// operational view behind Table 2's aggregate numbers (warm-up misses,
// reputation persistence, subnet escalation).
//
// Usage: scraping_campaign
#include <cstdio>
#include <map>

#include "core/report.hpp"
#include "detectors/registry.hpp"
#include "eval/run.hpp"
#include "httplog/timestamp.hpp"
#include "stats/running_stats.hpp"
#include "traffic/actor.hpp"
#include "workload/scenario_spec.hpp"

using namespace divscrape;

int main() {
  // One campaign, one simulated day, modest human background.
  workload::ScenarioSpec spec;
  spec.name = "scraping_campaign";
  spec.duration_days = 1.0;
  workload::VhostSpec www;
  www.site.catalogue_size = 20'000;
  www.humans.arrivals_per_s = 0.01;
  workload::AttackSpec fleet;
  fleet.kind = workload::AttackKind::kFleet;
  fleet.bots = 60;
  fleet.slow_bots = 4;
  www.attacks = {fleet};
  spec.vhosts.push_back(std::move(www));

  struct HourStats {
    std::uint64_t fleet = 0;
    std::uint64_t fleet_sentinel = 0;
    std::uint64_t fleet_arcane = 0;
    std::uint64_t benign = 0;
    std::uint64_t benign_alerted = 0;
  };
  std::map<int, HourStats> hours;
  std::map<std::uint32_t, httplog::Timestamp> first_seen;
  std::map<std::uint32_t, httplog::Timestamp> first_caught;

  const auto observe = [&](const httplog::LogRecord& record,
                           divscrape::span<const detectors::Verdict> verdicts) {
    const int hour = static_cast<int>((record.time - spec.start) /
                                      httplog::kMicrosPerHour);
    auto& h = hours[hour];
    const bool is_fleet =
        record.actor_class ==
        static_cast<std::uint8_t>(traffic::ActorClass::kScraperAggressive);
    if (is_fleet) {
      ++h.fleet;
      h.fleet_sentinel += verdicts[0].alert;
      h.fleet_arcane += verdicts[1].alert;
      if (first_seen.count(record.actor_id) == 0)
        first_seen[record.actor_id] = record.time;
      if ((verdicts[0].alert || verdicts[1].alert) &&
          first_caught.count(record.actor_id) == 0)
        first_caught[record.actor_id] = record.time;
    } else {
      ++h.benign;
      h.benign_alerted += verdicts[0].alert || verdicts[1].alert;
    }
  };
  (void)eval::run_experiment(spec, detectors::make_paper_pair(), observe);

  std::printf(
      "campaign timeline (60 fast + 4 slow bots, one simulated day)\n\n");
  std::printf("  %4s %10s %12s %12s %10s %10s\n", "hour", "fleet req",
              "sentinel%", "arcane%", "benign", "benign FP");
  for (const auto& [hour, h] : hours) {
    const double fleet = h.fleet == 0 ? 1.0 : static_cast<double>(h.fleet);
    std::printf("  %4d %10llu %11.1f%% %11.1f%% %10llu %10llu\n", hour,
                static_cast<unsigned long long>(h.fleet),
                100.0 * static_cast<double>(h.fleet_sentinel) / fleet,
                100.0 * static_cast<double>(h.fleet_arcane) / fleet,
                static_cast<unsigned long long>(h.benign),
                static_cast<unsigned long long>(h.benign_alerted));
  }

  // Time-to-detection distribution across fleet members.
  stats::RunningStats ttd;
  std::size_t caught = 0;
  for (const auto& [bot, seen] : first_seen) {
    const auto it = first_caught.find(bot);
    if (it == first_caught.end()) continue;
    ++caught;
    ttd.add(static_cast<double>(it->second - seen) / 1e6);
  }
  std::printf(
      "\nfleet members detected: %zu / %zu; time-to-first-alert: mean "
      "%.1fs, max %.1fs\n",
      caught, first_seen.size(), ttd.mean(), ttd.max());
  std::printf(
      "\nwhat to look for: coverage climbs within the first minutes of a\n"
      "bot's first burst (rate tripwires + behavioural floor), then the\n"
      "whole /24 is escalated and later sessions are caught from their\n"
      "first request by sentinel while arcane re-warms — the mechanism\n"
      "behind the paper's 'Distil only' mass.\n");
  return 0;
}
