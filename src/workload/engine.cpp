#include "workload/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "stats/rng.hpp"
#include "traffic/bots.hpp"
#include "traffic/generator.hpp"
#include "traffic/human.hpp"
#include "traffic/scrapers.hpp"
#include "traffic/ua_pool.hpp"

namespace divscrape::workload {

namespace {

using httplog::Ipv4;
using httplog::Timestamp;
using httplog::seconds_to_micros;
using stats::Rng;
using stats::mix_seed;

// Seed-derivation salts: every RNG of a spec run is seeded by hashing
// (spec seed, role salt, stable ordinal), never by walking a shared fork
// chain, so an actor's stream is a pure function of its identity — the
// property the partitioning determinism rests on.
constexpr std::uint64_t kActorSalt = 0xAC100001ULL;
constexpr std::uint64_t kArrivalSalt = 0xA1100001ULL;
constexpr std::uint64_t kSessionSalt = 0x5E550001ULL;
/// Human actor ids live far above static-actor ordinals.
constexpr std::uint32_t kHumanIdBase = 0x40000000u;
/// Simulated-time merge window: one generate/merge round. A run_batched
/// batch never spans two windows.
constexpr std::int64_t kWindowUs = httplog::kMicrosPerHour;

int scaled(int count, double scale) {
  if (count == 0) return 0;
  return std::max(1, static_cast<int>(std::lround(count * scale)));
}

/// Campaign c owns the /16 at 45.(140+c).0.0 (mod 100 keeps the second
/// octet in range for arbitrarily large specs).
Ipv4 campaign_base(int campaign) noexcept {
  return Ipv4(45, static_cast<std::uint8_t>(140 + campaign % 100), 0, 0);
}

/// Fast fleet member b sits in one of the campaign's /24s, hosts .2+.
Ipv4 fleet_ip(int campaign, int bot) noexcept {
  const auto base = campaign_base(campaign).value();
  const std::uint32_t subnet = static_cast<std::uint32_t>(bot / 200) % 256;
  const std::uint32_t host = 2 + static_cast<std::uint32_t>(bot % 200);
  return Ipv4(base | (subnet << 8) | host);
}

/// Slow members park at .200+ so they never collide with fast members.
Ipv4 slow_fleet_ip(int campaign, int bot) noexcept {
  const auto base = campaign_base(campaign).value();
  return Ipv4(base | (static_cast<std::uint32_t>(bot % 2) << 8) |
              (200u + static_cast<std::uint32_t>(bot / 2) % 50));
}

/// A human victim address inside a random campaign /24 (collateral pool).
Ipv4 botnet_neighbour_ip(Rng& rng, int campaigns) {
  const int c = static_cast<int>(rng.uniform_int(0, campaigns - 1));
  const auto base = campaign_base(c).value();
  const std::uint32_t subnet =
      static_cast<std::uint32_t>(rng.uniform_int(0, 1));
  const std::uint32_t host =
      180u + static_cast<std::uint32_t>(rng.uniform_int(0, 15));
  return Ipv4(base | (subnet << 8) | host);
}

/// Applies an attack wave's timing overrides onto an archetype profile
/// (0 keeps the archetype default; lifetime 0 keeps it too, except for the
/// aggressive fleet whose archetype default is already "unlimited").
void apply_overrides(traffic::BotProfile& profile, const AttackSpec& attack) {
  if (attack.gap_mean_s > 0.0) profile.gap_mean_s = attack.gap_mean_s;
  if (attack.session_len_mean > 0.0)
    profile.session_len_mean = attack.session_len_mean;
  if (attack.pause_mean_s > 0.0) profile.pause_mean_s = attack.pause_mean_s;
  if (attack.lifetime_requests != 0)
    profile.lifetime_requests = attack.lifetime_requests;
}

/// Applies an attack wave's E13 evasion capabilities onto an archetype
/// profile. Pure field assignment — no RNG draws — so the
/// build_group_member draw order (the byte-identity contract) is
/// untouched; ordinal assignment and first-session times cannot shift.
void apply_evasion(traffic::BotProfile& profile, const AttackSpec& attack) {
  if (!attack.evasion) return;
  const auto& evasion = *attack.evasion;
  profile.p_asset_mimicry = evasion.p_asset_mimicry;
  // A bot that fetches assets like a browser also carries a Referer like
  // one; mimicry below that bar would be self-defeating camouflage.
  if (evasion.p_asset_mimicry > 0.0)
    profile.referer_p = std::max(profile.referer_p, 0.6);
  profile.rotate_ua_per_session = evasion.rotate_ua_per_session;
  profile.rotate_ip_per_session = evasion.rotate_ip_per_session;
  if (evasion.human_think_time) {
    const traffic::HumanConfig human;
    profile.lognormal_gap = true;
    profile.gap_median_s = human.think_median_s;
    profile.gap_sigma = human.think_sigma;
  }
}

int campaigns_of(const AttackSpec& attack) noexcept {
  if (attack.kind == AttackKind::kFleet) return attack.campaigns;
  if (attack.kind == AttackKind::kApiPollers) return 1;
  return 0;
}

[[nodiscard]] Rng spec_actor_rng(const ScenarioSpec& spec,
                                 std::uint64_t salt) noexcept {
  return Rng(mix_seed(mix_seed(spec.seed, kActorSalt), salt));
}

/// First-session time: an explicit onboarding ramp spreads arrivals over
/// `ramp_days`; otherwise the archetype stagger (uniform over one pause,
/// capped at half the scenario so short runs still see everyone).
[[nodiscard]] Timestamp spec_start_time(const ScenarioSpec& spec, Rng& rng,
                                        double pause_s, double ramp_days) {
  const double duration_s = spec.duration_days * 24.0 * 3600.0;
  const double window_s =
      ramp_days > 0.0 ? std::min(ramp_days * 24.0 * 3600.0, duration_s)
                      : std::min(pause_s, duration_s / 2.0);
  return spec.start + seconds_to_micros(rng.uniform(0.0, window_s));
}

}  // namespace

/// Scripted-actor group kinds, one per inner population loop, listed in
/// walk order within their vhost.
enum class GroupKind : std::uint8_t {
  kCrawler,
  kMonitor,
  kFleetFast,
  kFleetSlow,
  kStealth,
  kApiClean,
  kApiFleet,
  kMalformed,
  kCaching,
};

/// One contiguous global-ordinal range of scripted actors built by the
/// same population loop. The table of these IS the lazy-actor contract: a
/// global ordinal (which doubles as the actor's RNG salt and the deferred
/// cookie) maps back to (vhost, kind, member index) by range lookup, so a
/// deferred actor needs no per-actor storage beyond the cookie and is
/// reconstructed bit-identically at its first arrival.
struct ActorGroup {
  std::uint64_t begin = 0;  ///< first global ordinal of the group
  std::uint64_t end = 0;    ///< one past the last
  GroupKind kind = GroupKind::kCrawler;
  std::uint32_t vhost = 0;   ///< index into spec.vhosts
  std::uint32_t attack = 0;  ///< index into the vhost's attacks (bots only)
  int campaign = 0;          ///< absolute campaign index (fleet flavours)
};

namespace {

/// Walks the population in the exact builder order and records every
/// scripted group's ordinal range. Shared by every partition builder and
/// the lazy materializer, so ranges and construction can never disagree.
std::vector<ActorGroup> build_group_table(const ScenarioSpec& spec) {
  std::vector<ActorGroup> groups;
  std::uint64_t ordinal = 0;
  int campaign_cursor = 0;
  const auto add = [&](GroupKind kind, std::uint32_t v, std::uint32_t a,
                       int campaign, int count) {
    if (count <= 0) return;
    groups.push_back({ordinal, ordinal + static_cast<std::uint64_t>(count),
                      kind, v, a, campaign});
    ordinal += static_cast<std::uint64_t>(count);
  };
  for (std::size_t v = 0; v < spec.vhosts.size(); ++v) {
    const auto& vhost = spec.vhosts[v];
    const auto vi = static_cast<std::uint32_t>(v);
    add(GroupKind::kCrawler, vi, 0, 0, scaled(vhost.crawlers, spec.scale));
    add(GroupKind::kMonitor, vi, 0, 0, scaled(vhost.monitors, spec.scale));
    for (std::size_t a = 0; a < vhost.attacks.size(); ++a) {
      const auto& attack = vhost.attacks[a];
      const auto ai = static_cast<std::uint32_t>(a);
      const int campaign0 = campaign_cursor;
      campaign_cursor += campaigns_of(attack);
      switch (attack.kind) {
        case AttackKind::kFleet:
          for (int c = 0; c < attack.campaigns; ++c) {
            add(GroupKind::kFleetFast, vi, ai, campaign0 + c,
                scaled(attack.bots, spec.scale));
            add(GroupKind::kFleetSlow, vi, ai, campaign0 + c,
                scaled(attack.slow_bots, spec.scale));
          }
          break;
        case AttackKind::kStealth:
          add(GroupKind::kStealth, vi, ai, 0,
              scaled(attack.bots, spec.scale));
          break;
        case AttackKind::kApiPollers:
          add(GroupKind::kApiClean, vi, ai, 0,
              scaled(attack.bots, spec.scale));
          add(GroupKind::kApiFleet, vi, ai, campaign0,
              scaled(attack.fleet_bots, spec.scale));
          break;
        case AttackKind::kMalformed:
          add(GroupKind::kMalformed, vi, ai, 0,
              scaled(attack.bots, spec.scale));
          break;
        case AttackKind::kCaching:
          add(GroupKind::kCaching, vi, ai, 0,
              scaled(attack.bots, spec.scale));
          break;
      }
    }
  }
  return groups;
}

struct BuiltActor {
  std::unique_ptr<traffic::Actor> actor;
  Timestamp start;
};

/// Constructs group member `member` (= ordinal - group.begin): the one
/// shared construction path behind eager build, lazy planning (which keeps
/// only the start time), and lazy materialization (which keeps only the
/// actor). One code path means the three uses cannot diverge — the RNG
/// draw order here is the byte-identity contract.
BuiltActor build_group_member(const ScenarioSpec& spec,
                              const traffic::SiteModel& site,
                              const ActorGroup& group, int member,
                              std::uint64_t salt) {
  const Timestamp end = spec.end();
  const auto& vhost = spec.vhosts[group.vhost];
  Rng rng = spec_actor_rng(spec, salt);
  const auto id = static_cast<std::uint32_t>(salt + 1);
  switch (group.kind) {
    case GroupKind::kCrawler: {
      traffic::CrawlerActor::Config cc;
      cc.crawl_gap_mean_s = vhost.crawler_gap_mean_s;
      cc.end_time = end;
      const Ipv4 ip(66, 249,
                    static_cast<std::uint8_t>(64 + (member / 200) % 8),
                    static_cast<std::uint8_t>(10 + member % 200));
      auto actor = std::make_unique<traffic::CrawlerActor>(
          site, cc, ip, std::string(traffic::sample_crawler_ua(rng)), rng,
          id);
      return {std::move(actor),
              spec.start + seconds_to_micros(rng.uniform(0.0, 60.0))};
    }
    case GroupKind::kMonitor: {
      traffic::MonitorActor::Config mc;
      mc.period_s = vhost.monitor_period_s;
      mc.end_time = end;
      const Ipv4 ip(63, 143,
                    static_cast<std::uint8_t>(42 + (member / 16) % 8),
                    static_cast<std::uint8_t>(240 + member % 16));
      auto actor =
          std::make_unique<traffic::MonitorActor>(site, mc, ip, rng, id);
      return {std::move(actor),
              spec.start + seconds_to_micros(
                               rng.uniform(0.0, vhost.monitor_period_s))};
    }
    case GroupKind::kFleetFast: {
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::aggressive_fleet_profile();
      profile.ip = fleet_ip(group.campaign, member);
      // Per-bot UA identity: half spoof current browsers, the rest leak
      // automation markers (mirrors the mixed tooling of real botnets).
      const double ua_roll = rng.uniform();
      if (ua_roll < 0.45) {
        profile.user_agent = std::string(traffic::sample_browser_ua(rng));
      } else if (ua_roll < 0.55) {
        profile.user_agent =
            std::string(traffic::sample_stale_browser_ua(rng));
      } else if (ua_roll < 0.80) {
        profile.user_agent = std::string(traffic::sample_script_ua(rng));
      } else {
        profile.user_agent = std::string(traffic::sample_headless_ua(rng));
      }
      apply_overrides(profile, attack);
      apply_evasion(profile, attack);
      profile.lifetime_requests = attack.lifetime_requests;
      const double pause = profile.pause_mean_s;
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, pause, attack.ramp_days)};
    }
    case GroupKind::kFleetSlow: {
      // Slow members: below the behavioural floor, inside the flagged
      // subnets. They keep their sub-threshold archetype timing — fleet
      // overrides apply to the fast members only.
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::slow_fleet_member_profile();
      profile.ip = slow_fleet_ip(group.campaign, member);
      profile.user_agent = std::string(
          rng.bernoulli(0.3) ? traffic::sample_stale_browser_ua(rng)
                             : traffic::sample_browser_ua(rng));
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, 43'200.0, attack.ramp_days)};
    }
    case GroupKind::kStealth: {
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::stealth_scraper_profile();
      profile.ip = traffic::sample_clean_ip(rng);
      profile.user_agent = std::string(traffic::sample_browser_ua(rng));
      apply_overrides(profile, attack);
      apply_evasion(profile, attack);
      const double pause = profile.pause_mean_s;
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, pause, attack.ramp_days)};
    }
    case GroupKind::kApiClean: {
      // Clean-IP flavour (the in-house tool's catch).
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::api_clean_poller_profile();
      profile.ip = traffic::sample_clean_ip(rng);
      profile.user_agent = std::string(traffic::sample_browser_ua(rng));
      apply_overrides(profile, attack);
      const double pause = profile.pause_mean_s;
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, pause, attack.ramp_days)};
    }
    case GroupKind::kApiFleet: {
      // Fleet flavour (the commercial tool's catch): parks on the attack's
      // own campaign /16 at high host addresses.
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::api_fleet_poller_profile();
      profile.ip =
          Ipv4(campaign_base(group.campaign).value() |
               (250u + static_cast<std::uint32_t>(member) % 5));
      profile.user_agent = std::string(traffic::sample_script_ua(rng));
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, 28'800.0, attack.ramp_days)};
    }
    case GroupKind::kMalformed: {
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::malformed_scraper_profile();
      profile.ip = traffic::sample_clean_ip(rng);
      profile.user_agent = std::string(traffic::sample_browser_ua(rng));
      apply_overrides(profile, attack);
      const double pause = profile.pause_mean_s;
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, pause, attack.ramp_days)};
    }
    case GroupKind::kCaching: {
      const auto& attack = vhost.attacks[group.attack];
      traffic::BotProfile profile = traffic::caching_scraper_profile();
      profile.ip = traffic::sample_clean_ip(rng);
      profile.user_agent = std::string(traffic::sample_browser_ua(rng));
      apply_overrides(profile, attack);
      const double pause = profile.pause_mean_s;
      auto actor = std::make_unique<traffic::ScraperBot>(
          site, std::move(profile), end, rng, id);
      return {std::move(actor),
              spec_start_time(spec, rng, pause, attack.ramp_days)};
    }
  }
  return {nullptr, spec.start};  // unreachable
}

/// Builds partition `partition` of `partitions` for one spec: walks the
/// whole population in a fixed order (via the shared group table), claims
/// every actor whose global ordinal lands on this partition, and registers
/// it with the generator — eagerly constructed, or as a deferred cookie
/// when `lazy` (the construction draws still happen once here, because the
/// start time is the last draw of the construction sequence; the actor
/// object is dropped and rebuilt on arrival).
class PopulationBuilder {
 public:
  PopulationBuilder(
      const ScenarioSpec& spec,
      const std::vector<std::unique_ptr<traffic::SiteModel>>& sites,
      const std::vector<ActorGroup>& groups, bool lazy,
      std::size_t partitions, std::size_t partition,
      traffic::TrafficGenerator& gen)
      : spec_(spec),
        sites_(sites),
        groups_(groups),
        lazy_(lazy),
        partitions_(partitions),
        partition_(partition),
        gen_(gen) {
    for (const auto& vhost : spec_.vhosts) {
      for (const auto& attack : vhost.attacks)
        total_campaigns_ += campaigns_of(attack);
    }
  }

  void build() {
    std::size_t gi = 0;
    for (std::size_t v = 0; v < spec_.vhosts.size(); ++v) {
      add_humans(v);
      for (; gi < groups_.size() && groups_[gi].vhost == v; ++gi)
        add_group(groups_[gi]);
    }
  }

 private:
  void add_group(const ActorGroup& g) {
    const auto& site = *sites_[g.vhost];
    for (std::uint64_t ord = g.begin; ord < g.end; ++ord) {
      if (ord % partitions_ != partition_) continue;
      auto built = build_group_member(spec_, site, g,
                                      static_cast<int>(ord - g.begin), ord);
      if (lazy_) {
        gen_.add_lazy_actor(ord, built.start);
      } else {
        gen_.add_actor(std::move(built.actor), built.start, g.vhost);
      }
    }
  }

  void add_humans(std::size_t v) {
    const auto& mix = spec_.vhosts[v].humans;
    // Poisson superposition in reverse: P independent processes at rate/P
    // compose to the same aggregate arrival process, and each partition's
    // slice is deterministic in (spec, partitions, partition) alone.
    const double base_rate =
        mix.arrivals_per_s * spec_.scale / static_cast<double>(partitions_);
    if (base_rate <= 0.0) return;
    auto arrivals_rng = std::make_shared<Rng>(
        mix_seed(mix_seed(spec_.seed, kArrivalSalt + v), partition_));
    auto session_rng = std::make_shared<Rng>(
        mix_seed(mix_seed(spec_.seed, kSessionSalt + v), partition_));
    const Timestamp day0 = spec_.start;
    const double amplitude = mix.diurnal_amplitude;
    const bool has_surge = mix.surge_start_day >= 0.0 &&
                           mix.surge_duration_h > 0.0 &&
                           mix.surge_multiplier != 1.0;
    const std::int64_t surge_begin =
        day0.micros() +
        static_cast<std::int64_t>(mix.surge_start_day * httplog::kMicrosPerDay);
    const std::int64_t surge_end =
        surge_begin + static_cast<std::int64_t>(mix.surge_duration_h *
                                                httplog::kMicrosPerHour);
    const double surge_multiplier = mix.surge_multiplier;

    const auto rate_at = [base_rate, amplitude, day0, has_surge, surge_begin,
                          surge_end, surge_multiplier](Timestamp now) {
      const double hours = static_cast<double>(now - day0) / 1e6 / 3600.0;
      const double modulation =
          1.0 + amplitude * std::sin((hours - 9.0) / 24.0 * 2.0 * 3.14159265);
      double rate = base_rate * modulation;
      if (has_surge && now.micros() >= surge_begin && now.micros() < surge_end)
        rate *= surge_multiplier;
      return std::max(1e-9, rate);
    };

    traffic::ArrivalProcess humans;
    humans.next_arrival = [arrivals_rng, rate_at, has_surge, surge_begin,
                           surge_end](
                              Timestamp now) -> std::optional<Timestamp> {
      // A draw that crosses a surge boundary restarts at the boundary
      // with the boundary's rate. Exponential memorylessness makes this
      // exact for a piecewise-constant rate — without the entry re-draw a
      // quiet vhost could sleep through its own flash crowd, and without
      // the exit re-draw the first post-surge arrival would land at the
      // surged (compressed) gap.
      const auto redraw_at = [&](std::int64_t boundary_us) {
        const Timestamp boundary(boundary_us);
        return boundary + seconds_to_micros(
                              arrivals_rng->exponential(1.0 / rate_at(boundary)));
      };
      Timestamp next =
          now + seconds_to_micros(arrivals_rng->exponential(1.0 / rate_at(now)));
      if (has_surge && now.micros() < surge_begin &&
          next.micros() > surge_begin) {
        next = redraw_at(surge_begin);
      }
      if (has_surge && now.micros() < surge_end &&
          next.micros() > surge_end) {
        next = redraw_at(surge_end);
      }
      return next;
    };

    const auto* site = sites_[v].get();
    const traffic::HumanConfig human_config;
    const double fp_p = mix.in_botnet_subnet_p;
    const int campaigns = total_campaigns_;
    auto id_counter = std::make_shared<std::uint32_t>(0);
    const std::uint32_t id_stride = static_cast<std::uint32_t>(partitions_);
    // Base is salted per vhost: each vhost's arrival process counts from
    // zero, so without the salt the first human of every vhost in a given
    // partition would share one id.
    const std::uint32_t id_offset =
        static_cast<std::uint32_t>(v) * 0x01000000u +
        static_cast<std::uint32_t>(partition_);
    humans.make_actor = [session_rng, site, human_config, fp_p, campaigns,
                         id_counter, id_stride,
                         id_offset](Timestamp) -> std::unique_ptr<traffic::Actor> {
      Rng rng = session_rng->fork();
      const bool in_botnet = rng.bernoulli(fp_p) && campaigns > 0;
      const Ipv4 ip = in_botnet ? botnet_neighbour_ip(rng, campaigns)
                                : traffic::sample_clean_ip(rng);
      const std::uint32_t id =
          kHumanIdBase + id_offset + id_stride * (*id_counter)++;
      return std::make_unique<traffic::HumanActor>(
          *site, human_config, ip,
          std::string(traffic::sample_browser_ua(rng)), rng, id);
    };
    humans.vhost = static_cast<std::uint32_t>(v);
    gen_.add_arrivals(std::move(humans), spec_.start);
  }

  const ScenarioSpec& spec_;
  const std::vector<std::unique_ptr<traffic::SiteModel>>& sites_;
  const std::vector<ActorGroup>& groups_;
  bool lazy_;
  std::size_t partitions_;
  std::size_t partition_;
  traffic::TrafficGenerator& gen_;
  int total_campaigns_ = 0;
};

}  // namespace

/// One logical partition: its generator, the record carried across the
/// current window horizon, and the two generation buffers (one being
/// merged while the other fills).
struct WorkloadEngine::Partition {
  std::size_t index = 0;
  bool built = false;
  std::unique_ptr<traffic::TrafficGenerator> gen;
  httplog::LogRecord carry;
  bool has_carry = false;
  bool exhausted = false;
  std::vector<httplog::LogRecord> buffers[2];
};

/// Round-based worker pool: start_round() hands every partition out via an
/// atomic counter; workers build partitions lazily (construction
/// parallelizes for free) and signal completion per partition.
struct WorkloadEngine::Pool {
  std::mutex mutex;
  std::condition_variable round_start;
  std::condition_variable round_done;
  std::vector<std::thread> workers;
  std::uint64_t round = 0;
  std::atomic<std::size_t> next_part{0};
  std::size_t completed = 0;
  httplog::Timestamp horizon;
  int buf = 0;
  bool shutdown = false;
};

WorkloadEngine::WorkloadEngine(ScenarioSpec spec, EngineConfig config)
    : spec_(std::move(spec)), config_(config) {
  if (config_.gen_threads < 1)
    throw std::invalid_argument("WorkloadEngine: gen_threads must be >= 1");
  if (config_.partitions < 1)
    throw std::invalid_argument("WorkloadEngine: partitions must be >= 1");
  sites_.reserve(spec_.vhosts.size());
  for (const auto& vhost : spec_.vhosts)
    sites_.push_back(std::make_unique<traffic::SiteModel>(vhost.site));
  groups_ = build_group_table(spec_);
  parts_.reserve(config_.partitions);
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
    parts_.back()->index = p;
  }
}

WorkloadEngine::~WorkloadEngine() {
  if (!pool_) return;
  {
    std::lock_guard lock(pool_->mutex);
    pool_->shutdown = true;
  }
  pool_->round_start.notify_all();
  for (auto& worker : pool_->workers) {
    if (worker.joinable()) worker.join();
  }
}

void WorkloadEngine::build_partition(Partition& part) const {
  part.gen = std::make_unique<traffic::TrafficGenerator>(spec_.end());
  if (config_.lazy_actors) {
    part.gen->set_materializer(
        [this](std::uint64_t cookie) { return materialize(cookie); });
  }
  PopulationBuilder(spec_, sites_, groups_, config_.lazy_actors,
                    config_.partitions, part.index, *part.gen)
      .build();
  part.built = true;
}

traffic::TrafficGenerator::Materialized WorkloadEngine::materialize(
    std::uint64_t cookie) const {
  // Reads only immutable state (spec_, groups_, sites_) — safe from any
  // worker thread concurrently.
  const auto it = std::upper_bound(
      groups_.begin(), groups_.end(), cookie,
      [](std::uint64_t c, const ActorGroup& g) { return c < g.end; });
  const ActorGroup& g = *it;
  auto built = build_group_member(spec_, *sites_[g.vhost], g,
                                  static_cast<int>(cookie - g.begin), cookie);
  return {std::move(built.actor), g.vhost};
}

std::uint64_t static_population(const ScenarioSpec& spec) {
  const auto groups = build_group_table(spec);
  return groups.empty() ? 0 : groups.back().end;
}

std::uint64_t WorkloadEngine::actors_created() const noexcept {
  std::uint64_t total = 0;
  for (const auto& part : parts_)
    if (part->gen) total += part->gen->actors_created();
  return total;
}

std::size_t WorkloadEngine::peak_live_actors() const noexcept {
  std::size_t total = 0;
  for (const auto& part : parts_)
    if (part->gen) total += part->gen->peak_live_actors();
  return total;
}

void WorkloadEngine::generate_window(Partition& part, Timestamp horizon,
                                     int buf) {
  auto& out = part.buffers[buf];
  out.clear();
  if (part.has_carry) {
    if (part.carry.time >= horizon) return;  // still beyond this window
    out.push_back(std::move(part.carry));
    part.has_carry = false;
  }
  if (part.exhausted) return;
  httplog::LogRecord record;
  while (part.gen->next(record)) {
    if (record.time >= horizon) {
      part.carry = std::move(record);
      part.has_carry = true;
      return;
    }
    out.push_back(std::move(record));
  }
  part.exhausted = true;
}

void WorkloadEngine::worker_loop() {
  std::uint64_t seen_round = 0;
  for (;;) {
    {
      std::unique_lock lock(pool_->mutex);
      pool_->round_start.wait(lock, [&] {
        return pool_->shutdown || pool_->round != seen_round;
      });
      if (pool_->shutdown) return;
      seen_round = pool_->round;
    }
    for (;;) {
      const std::size_t i = pool_->next_part.fetch_add(1);
      if (i >= parts_.size()) break;
      // Re-read the round parameters under the mutex: a straggler from the
      // previous round can legitimately claim the first task of the next
      // one (the counter was reset before it re-checked), and must then
      // use the *new* horizon and buffer, not its cached idea of them.
      Timestamp horizon;
      int buf;
      {
        std::lock_guard lock(pool_->mutex);
        horizon = pool_->horizon;
        buf = pool_->buf;
      }
      Partition& part = *parts_[i];
      if (!part.built) build_partition(part);
      generate_window(part, horizon, buf);
      {
        std::lock_guard lock(pool_->mutex);
        if (++pool_->completed == parts_.size())
          pool_->round_done.notify_one();
      }
    }
  }
}

void WorkloadEngine::start_round(Timestamp horizon, int buf) {
  {
    std::lock_guard lock(pool_->mutex);
    pool_->horizon = horizon;
    pool_->buf = buf;
    pool_->completed = 0;
    pool_->next_part.store(0);
    ++pool_->round;
  }
  pool_->round_start.notify_all();
}

void WorkloadEngine::wait_round() {
  std::unique_lock lock(pool_->mutex);
  pool_->round_done.wait(lock,
                         [&] { return pool_->completed == parts_.size(); });
}

void WorkloadEngine::merge_window(int buf, const EmitFn& emit) {
  // K-way merge of the window's per-partition buffers. The key is
  // (timestamp, partition, per-partition order) — per-partition order is
  // preserved because a partition's next record enters the heap only after
  // its predecessor left.
  struct Head {
    std::int64_t time_us;
    std::uint32_t part;
    std::size_t idx;
  };
  const auto after = [](const Head& a, const Head& b) noexcept {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    return a.part > b.part;
  };
  std::vector<Head> heap;
  heap.reserve(parts_.size());
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const auto& buffer = parts_[p]->buffers[buf];
    if (!buffer.empty()) {
      heap.push_back(
          {buffer.front().time.micros(), static_cast<std::uint32_t>(p), 0});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    if (stop_requested()) return;  // cancel at a record boundary
    std::pop_heap(heap.begin(), heap.end(), after);
    const Head head = heap.back();
    heap.pop_back();
    auto& buffer = parts_[head.part]->buffers[buf];
    auto& record = buffer[head.idx];
    emit(record);
    ++emitted_;
    if (head.idx + 1 < buffer.size()) {
      heap.push_back({buffer[head.idx + 1].time.micros(), head.part,
                      head.idx + 1});
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
}

std::uint64_t WorkloadEngine::run(const RecordSink& sink) {
  return run_rounds([&sink](httplog::LogRecord& record) {
    sink(std::move(record));
  }, {});
}

std::uint64_t WorkloadEngine::run_batched(const BatchSink& sink,
                                          std::size_t batch_records,
                                          pipeline::BatchPool* pool) {
  const std::size_t cap = batch_records == 0 ? 1 : batch_records;
  pipeline::RecordBatch batch =
      pool ? pool->acquire() : pipeline::RecordBatch{};
  const auto flush = [&] {
    if (batch.empty()) return;
    pipeline::RecordBatch full = std::move(batch);
    batch = pool ? pool->acquire() : pipeline::RecordBatch{};
    sink(std::move(full));
  };
  const std::uint64_t n = run_rounds(
      [&](httplog::LogRecord& record) {
        // Copy-assign into a warm slot; the merge buffer keeps its record
        // (its storage is recycled by the next generation round anyway).
        batch.append_slot() = record;
        if (batch.size() >= cap) flush();
      },
      flush);  // batches never span merge windows
  flush();     // a stop_requested() cancel can leave a final partial
  return n;
}

std::uint64_t WorkloadEngine::run_rounds(
    const EmitFn& emit, const std::function<void()>& on_window_end) {
  if (ran_) throw std::logic_error("WorkloadEngine: run() called twice");
  ran_ = true;
  if (spec_.vhosts.empty()) return 0;

  pool_ = std::make_unique<Pool>();
  pool_->workers.reserve(config_.gen_threads);
  for (std::size_t t = 0; t < config_.gen_threads; ++t) {
    pool_->workers.emplace_back([this] { worker_loop(); });
  }

  const auto horizon_of = [this](std::uint64_t round) {
    return spec_.start + static_cast<std::int64_t>(round + 1) * kWindowUs;
  };

  int gen_buf = 0;
  std::uint64_t next_window = 0;
  start_round(horizon_of(next_window++), gen_buf);
  wait_round();
  for (;;) {
    const int merge_buf = gen_buf;
    // Safe to inspect partition state: all workers are idle between
    // wait_round() and the next start_round().
    bool more = false;
    for (const auto& part : parts_) {
      if (!part->exhausted || part->has_carry) {
        more = true;
        break;
      }
    }
    if (stop_requested()) more = false;
    if (more) {
      // Pipeline: round w+1 generates into the other buffer while this
      // thread merges round w.
      gen_buf ^= 1;
      start_round(horizon_of(next_window++), gen_buf);
    }
    merge_window(merge_buf, emit);
    if (on_window_end) on_window_end();
    if (!more) break;
    wait_round();
  }

  {
    std::lock_guard lock(pool_->mutex);
    pool_->shutdown = true;
  }
  pool_->round_start.notify_all();
  for (auto& worker : pool_->workers) worker.join();
  pool_.reset();
  return emitted_;
}

}  // namespace divscrape::workload
