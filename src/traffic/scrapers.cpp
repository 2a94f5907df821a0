#include "traffic/scrapers.hpp"

#include <algorithm>

#include "traffic/ua_pool.hpp"

namespace divscrape::traffic {

httplog::Ipv4 sample_clean_ip(stats::Rng& rng) {
  for (;;) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_int(1, 223));
    if (a == 10 || a == 45 || a == 66 || a == 127 || a == 172 || a == 192)
      continue;
    const auto rest =
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffff));
    return httplog::Ipv4((a << 24) | rest);
  }
}

BotProfile aggressive_fleet_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperAggressive;
  profile.p_search = 0.08;
  profile.p_api = 0.0018;
  profile.p_book = 0.026;
  profile.p_malformed = 7e-6;
  profile.gap_mean_s = 0.30;
  profile.session_len_mean = 380;
  profile.pause_mean_s = 260'000;  // ~3 days between sweeps
  return profile;
}

BotProfile slow_fleet_member_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperAggressive;
  profile.p_search = 0.08;
  profile.p_book = 0.012;
  profile.p_malformed = 0.0055;
  profile.p_dead_link = 0.0028;
  profile.p_conditional = 0.0022;
  profile.gap_mean_s = 30.0;
  profile.session_len_mean = 500;
  profile.pause_mean_s = 43'200;
  profile.lifetime_requests = 480;
  return profile;
}

BotProfile stealth_scraper_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperStealth;
  profile.p_search = 0.05;
  profile.p_book = 0.025;
  profile.gap_mean_s = 5.0;
  profile.session_len_mean = 110;
  profile.pause_mean_s = 14'400;
  profile.lifetime_requests = 350;
  profile.referer_p = 0.3;  // stealth bots fake referers too
  return profile;
}

BotProfile api_clean_poller_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperApi;
  profile.p_search = 0.02;
  profile.p_api = 0.93;
  profile.p_book = 0.02;
  profile.gap_mean_s = 2.0;
  profile.session_len_mean = 300;
  profile.pause_mean_s = 7'200;
  profile.lifetime_requests = 1'150;
  return profile;
}

BotProfile api_fleet_poller_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperApi;
  profile.p_api = 0.95;
  profile.p_search = 0.01;
  profile.gap_mean_s = 30.0;  // below the behavioural window floor
  profile.session_len_mean = 250;
  profile.pause_mean_s = 28'800;
  profile.lifetime_requests = 740;
  return profile;
}

BotProfile malformed_scraper_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperMalformed;
  profile.p_malformed = 0.30;
  profile.p_dead_link = 0.01;
  profile.p_search = 0.02;
  profile.gap_mean_s = 5.0;
  profile.session_len_mean = 60;
  profile.pause_mean_s = 14'400;
  profile.lifetime_requests = 280;
  return profile;
}

BotProfile caching_scraper_profile() {
  BotProfile profile;
  profile.cls = ActorClass::kScraperCaching;
  profile.p_conditional = 0.80;
  profile.gap_mean_s = 4.0;
  profile.session_len_mean = 80;
  profile.pause_mean_s = 21'600;
  profile.lifetime_requests = 58;
  return profile;
}

ScraperBot::ScraperBot(const SiteModel& site, BotProfile profile,
                       httplog::Timestamp end_time, stats::Rng rng,
                       std::uint32_t actor_id)
    : site_(&site),
      profile_(std::move(profile)),
      end_time_(end_time),
      rng_(rng),
      actor_id_(actor_id) {
  sweep_pos_ = static_cast<std::size_t>(rng_.uniform_int(
      1, static_cast<std::int64_t>(site_->catalogue_size())));
  current_ip_ = profile_.ip;
  current_ua_ = profile_.user_agent;
  begin_session();
}

void ScraperBot::begin_session() {
  const double mean = std::max(1.0, profile_.session_len_mean);
  session_remaining_ =
      static_cast<std::uint64_t>(rng_.geometric(1.0 / mean));
  if (profile_.rotate_ip_per_session) current_ip_ = sample_clean_ip(rng_);
  if (profile_.rotate_ua_per_session)
    current_ua_ = std::string(sample_browser_ua(rng_));
}

double ScraperBot::next_gap_s() {
  if (profile_.lognormal_gap) {
    return stats::LogNormalDistribution(profile_.gap_median_s,
                                        profile_.gap_sigma)
        .sample(rng_);
  }
  return rng_.exponential(profile_.gap_mean_s);
}

StepResult ScraperBot::step(httplog::Timestamp now, httplog::LogRecord& out) {
  out = httplog::LogRecord{};
  out.ip = current_ip_;
  out.time = now;
  out.user_agent = current_ua_;
  out.truth = httplog::Truth::kMalicious;
  out.actor_id = actor_id_;
  out.actor_class = static_cast<std::uint8_t>(profile_.cls);
  out.referer = rng_.bernoulli(profile_.referer_p)
                    ? "https://shop.example.com/search"
                    : "-";

  // Choose what to hit.
  Endpoint endpoint = Endpoint::kOffer;
  std::size_t item = 0;
  AccessFlags flags;
  const double u = rng_.uniform();
  if (asset_pending_) {
    // Browser mimicry: the asset fetch promised after the last page.
    asset_pending_ = false;
    endpoint = Endpoint::kAsset;
    item = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(site_->asset_count()) - 1));
    out.referer = "https://shop.example.com/offers";
  } else if (rng_.bernoulli(profile_.p_malformed)) {
    // A buggy client: broken percent-encoding / unterminated query. The
    // request line still parses as a target but the server rejects it.
    endpoint = Endpoint::kOffer;
    item = site_->sample_uniform_offer(rng_);
    flags.malformed = true;
  } else if (u < profile_.p_search) {
    endpoint = Endpoint::kSearch;
  } else if (u < profile_.p_search + profile_.p_api) {
    endpoint = Endpoint::kApiAvail;
    item = site_->sample_uniform_offer(rng_);
  } else if (u < profile_.p_search + profile_.p_api + profile_.p_book) {
    endpoint = Endpoint::kBook;
    item = site_->sample_uniform_offer(rng_);
  } else if (u < profile_.p_search + profile_.p_api + profile_.p_book +
                     profile_.p_dead_link) {
    endpoint = Endpoint::kDeadLink;
    item = static_cast<std::size_t>(rng_.uniform_int(0, 50'000));
  } else {
    endpoint = Endpoint::kOffer;
    if (profile_.sweep_sequential) {
      item = sweep_pos_;
      sweep_pos_ = sweep_pos_ % site_->catalogue_size() + 1;
    } else {
      item = site_->sample_uniform_offer(rng_);
    }
    flags.conditional = rng_.bernoulli(profile_.p_conditional);
  }

  out.target = site_->target(endpoint, item, rng_);
  if (flags.malformed) {
    // Corrupt the target the way broken scrapers do.
    out.target += "%zz&&date=";
  }
  const Response resp = site_->respond(endpoint, flags, rng_);
  out.status = resp.status;
  out.bytes = resp.bytes;

  if (endpoint == Endpoint::kOffer &&
      rng_.bernoulli(profile_.p_asset_mimicry)) {
    asset_pending_ = true;  // schedule a camouflage asset fetch
  }

  ++emitted_;
  StepResult result;
  result.emitted = true;

  if (profile_.lifetime_requests != 0 &&
      emitted_ >= profile_.lifetime_requests) {
    return result;  // budget spent; bot retires
  }

  httplog::Timestamp next;
  if (session_remaining_ > 1) {
    --session_remaining_;
    next = now + httplog::seconds_to_micros(next_gap_s());
  } else {
    begin_session();
    next = now + httplog::seconds_to_micros(
                     rng_.exponential(profile_.pause_mean_s));
  }
  if (next < end_time_) result.next = next;
  return result;
}

}  // namespace divscrape::traffic
