#include "detectors/arcane.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "httplog/url.hpp"

namespace divscrape::detectors {

using httplog::Timestamp;

ArcaneDetector::ArcaneDetector(ArcaneConfig config) : config_(config) {}

void ArcaneDetector::ClientState::grow() {
  // Linearize into a doubled ring (oldest entry back at index 0).
  std::vector<Entry> grown(ring.empty() ? 8 : ring.size() * 2);
  for (std::size_t i = 0; i < count; ++i)
    grown[i] = ring[(head + i) % ring.size()];
  ring = std::move(grown);
  head = 0;
}

void ArcaneDetector::ClientState::push(const Entry& e) {
  if (count == ring.size()) grow();
  ring[(head + count) % ring.size()] = e;
  ++count;
}

void ArcaneDetector::ClientState::bump_template(std::uint32_t token) {
  for (auto& [t, c] : templates) {
    if (t == token) {
      ++c;
      return;
    }
  }
  templates.emplace_back(token, 1);
}

void ArcaneDetector::ClientState::drop_template(std::uint32_t token) {
  for (auto& tc : templates) {
    if (tc.first == token) {
      if (--tc.second == 0) {
        // Order is irrelevant (save_state sorts): swap-and-pop.
        tc = templates.back();
        templates.pop_back();
      }
      return;
    }
  }
}

void ArcaneDetector::reset() {
  clients_.clear();
  local_uas_.clear();
  ua_info_.clear();
  paths_.clear();
  evaluations_ = 0;
  last_state_ = nullptr;
}

void ArcaneDetector::prune(ClientState& state, Timestamp now) {
  const auto cutoff =
      now + (-httplog::seconds_to_micros(config_.window_s));
  while (state.count != 0 && state.front().time < cutoff) {
    const Entry& e = state.front();
    state.assets -= e.asset;
    state.referers -= e.referer;
    state.errors_4xx -= e.error_4xx;
    state.no_content -= e.no_content;
    state.not_modified -= e.not_modified;
    state.drop_template(e.template_token);
    state.pop_front();
  }
}

void ArcaneDetector::maybe_sweep(Timestamp now) {
  // Drop clients idle for over an hour; their window is empty anyway.
  if (++evaluations_ % 100'000 != 0) return;
  const auto cutoff = now + (-httplog::seconds_to_micros(3600.0));
  for (auto it = clients_.begin(); it != clients_.end();) {
    it = it->second.last_seen < cutoff ? clients_.erase(it) : std::next(it);
  }
  last_state_ = nullptr;  // erase may have freed the memoized node
}

namespace {

constexpr std::uint32_t kArcaneMagic = 0x4152434Eu;  // "ARCN"
/// v2: the path-template section holds template strings only (v1 held
/// every distinct path too, in one token space with the templates).
constexpr std::uint32_t kArcaneVersion = 2;

void put_config(util::StateWriter& w, const ArcaneConfig& c) {
  w.f64(c.window_s);
  w.i64(c.min_requests);
  w.f64(c.alert_threshold);
  w.f64(c.w_asset_starvation);
  w.f64(c.w_scripted_ua);
  w.f64(c.w_template_monotony);
  w.f64(c.w_no_referer);
  w.f64(c.w_error_ratio);
  w.f64(c.w_no_content_ratio);
  w.f64(c.w_not_modified_ratio);
  w.f64(c.w_volume_extreme);
  w.f64(c.w_volume_high);
  w.f64(c.w_volume_medium);
  w.i64(c.volume_extreme);
  w.i64(c.volume_high);
  w.i64(c.volume_medium);
  w.f64(c.error_ratio_min);
  w.f64(c.no_content_ratio_min);
  w.f64(c.not_modified_ratio_min);
  w.f64(c.referer_ratio_max);
  w.i64(c.template_monotony_max);
  w.i64(c.declared_bot_grace);
}

[[nodiscard]] bool config_matches(util::StateReader& r,
                                  const ArcaneConfig& c) {
  bool same = r.f64() == c.window_s;
  same &= r.i64() == c.min_requests;
  same &= r.f64() == c.alert_threshold;
  same &= r.f64() == c.w_asset_starvation;
  same &= r.f64() == c.w_scripted_ua;
  same &= r.f64() == c.w_template_monotony;
  same &= r.f64() == c.w_no_referer;
  same &= r.f64() == c.w_error_ratio;
  same &= r.f64() == c.w_no_content_ratio;
  same &= r.f64() == c.w_not_modified_ratio;
  same &= r.f64() == c.w_volume_extreme;
  same &= r.f64() == c.w_volume_high;
  same &= r.f64() == c.w_volume_medium;
  same &= r.i64() == c.volume_extreme;
  same &= r.i64() == c.volume_high;
  same &= r.i64() == c.volume_medium;
  same &= r.f64() == c.error_ratio_min;
  same &= r.f64() == c.no_content_ratio_min;
  same &= r.f64() == c.not_modified_ratio_min;
  same &= r.f64() == c.referer_ratio_max;
  same &= r.i64() == c.template_monotony_max;
  same &= r.i64() == c.declared_bot_grace;
  return same && r.ok();
}

}  // namespace

bool ArcaneDetector::save_state(util::StateWriter& w) const {
  util::put_tag(w, kArcaneMagic, kArcaneVersion);
  put_config(w, config_);
  w.u64(evaluations_);
  local_uas_.save_state(w);
  paths_.save_state(w);

  std::vector<std::pair<httplog::SessionKey, const ClientState*>> clients;
  clients.reserve(clients_.size());
  for (const auto& [key, state] : clients_) clients.emplace_back(key, &state);
  std::sort(clients.begin(), clients.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(clients.size());
  for (const auto& [key, state] : clients) {
    w.u32(key.ip.value());
    w.u32(key.ua_token);
    w.u64(state->count);
    for (std::size_t j = 0; j < state->count; ++j) {
      const Entry& e = state->at(j);  // oldest-first: same bytes as before
      w.i64(e.time.micros());
      w.u32(e.template_token);
      w.u8(static_cast<std::uint8_t>(e.asset | (e.referer << 1) |
                                     (e.error_4xx << 2) |
                                     (e.no_content << 3) |
                                     (e.not_modified << 4)));
    }
    w.i64(state->assets);
    w.i64(state->referers);
    w.i64(state->errors_4xx);
    w.i64(state->no_content);
    w.i64(state->not_modified);
    std::vector<std::pair<std::uint32_t, int>> templates = state->templates;
    std::sort(templates.begin(), templates.end());
    w.u64(templates.size());
    for (const auto& [token, count] : templates) {
      w.u32(token);
      w.i64(count);
    }
    w.i64(state->last_seen.micros());
    w.u8(static_cast<std::uint8_t>(state->scripted |
                                   (state->declared_bot << 1) |
                                   (state->browser << 2) |
                                   (state->ua_classified << 3)));
  }
  return true;
}

bool ArcaneDetector::load_state(util::StateReader& r) {
  reset();
  const auto fail = [&] {
    r.fail();
    reset();
    return false;
  };
  if (!util::check_tag(r, kArcaneMagic, kArcaneVersion)) return false;
  if (!config_matches(r, config_)) return fail();
  evaluations_ = r.u64();
  if (!local_uas_.load_state(r)) return fail();
  if (!paths_.load_state(r)) return fail();

  const std::uint64_t client_count = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < client_count; ++i) {
    const httplog::Ipv4 ip{r.u32()};
    const std::uint32_t ua_token = r.u32();
    ClientState state;
    const std::uint64_t entries = r.u64();
    if (!r.ok()) break;
    for (std::uint64_t j = 0; r.ok() && j < entries; ++j) {
      Entry e;
      e.time = Timestamp{r.i64()};
      e.template_token = r.u32();
      const std::uint8_t bits = r.u8();
      e.asset = (bits & 1) != 0;
      e.referer = (bits & 2) != 0;
      e.error_4xx = (bits & 4) != 0;
      e.no_content = (bits & 8) != 0;
      e.not_modified = (bits & 16) != 0;
      state.push(e);
    }
    state.assets = static_cast<int>(r.i64());
    state.referers = static_cast<int>(r.i64());
    state.errors_4xx = static_cast<int>(r.i64());
    state.no_content = static_cast<int>(r.i64());
    state.not_modified = static_cast<int>(r.i64());
    const std::uint64_t template_count = r.u64();
    for (std::uint64_t j = 0; r.ok() && j < template_count; ++j) {
      const std::uint32_t token = r.u32();
      state.templates.emplace_back(token, static_cast<int>(r.i64()));
    }
    state.last_seen = Timestamp{r.i64()};
    const std::uint8_t ua_bits = r.u8();
    state.scripted = (ua_bits & 1) != 0;
    state.declared_bot = (ua_bits & 2) != 0;
    state.browser = (ua_bits & 4) != 0;
    state.ua_classified = (ua_bits & 8) != 0;
    if (r.ok())
      clients_.emplace(httplog::SessionKey{ip, ua_token}, std::move(state));
  }
  if (!r.ok()) return fail();
  return true;
}

Verdict ArcaneDetector::evaluate(const httplog::LogRecord& record) {
  const Timestamp now = record.time;
  maybe_sweep(now);

  const httplog::SessionKey key{record.ip,
                                httplog::ua_key_token(record, local_uas_)};
  if (last_state_ == nullptr || key != last_key_) {
    last_state_ = &clients_[key];
    last_key_ = key;
  }
  ClientState& state = *last_state_;
  state.last_seen = now;
  if (!state.ua_classified) {
    const auto& ua = ua_info_.get(key.ua_token, record.user_agent);
    state.scripted = ua.scripted;
    state.declared_bot = ua.declared_bot;
    state.browser = ua.family == httplog::UaFamily::kBrowser;
    state.ua_classified = true;
  }

  prune(state, now);

  Entry entry;
  entry.time = now;
  const auto path = record.path();
  entry.template_token = paths_.token(path);
  entry.asset = httplog::is_static_asset(path);
  entry.referer = record.referer != "-" && !record.referer.empty();
  entry.error_4xx = record.status >= 400 && record.status < 500;
  entry.no_content = record.status == 204;
  entry.not_modified = record.status == 304;

  state.push(entry);
  state.assets += entry.asset;
  state.referers += entry.referer;
  state.errors_4xx += entry.error_4xx;
  state.no_content += entry.no_content;
  state.not_modified += entry.not_modified;
  state.bump_template(entry.template_token);

  const int n = static_cast<int>(state.count);
  if (n < config_.min_requests) return {false, 0.0, AlertReason::kNone};

  // Polite declared crawlers get a volume grace allowance.
  if (state.declared_bot && n < config_.declared_bot_grace)
    return {false, 0.0, AlertReason::kNone};

  const double nd = static_cast<double>(n);
  double score = 0.0;
  AlertReason dominant = AlertReason::kBehavioral;
  double dominant_weight = 0.0;

  const auto add_signal = [&](bool active, double weight, AlertReason why) {
    if (!active) return;
    score += weight;
    if (weight > dominant_weight) {
      dominant_weight = weight;
      dominant = why;
    }
  };

  const int pages = n - state.assets;
  add_signal(pages >= 10 && state.assets == 0, config_.w_asset_starvation,
             AlertReason::kBehavioral);
  add_signal(state.scripted, config_.w_scripted_ua,
             AlertReason::kBadUserAgent);
  add_signal(static_cast<int>(state.templates.size()) <=
                 config_.template_monotony_max,
             config_.w_template_monotony, AlertReason::kBehavioral);
  add_signal(static_cast<double>(state.referers) / nd <
                 config_.referer_ratio_max,
             config_.w_no_referer, AlertReason::kBehavioral);
  add_signal(static_cast<double>(state.errors_4xx) / nd >=
                 config_.error_ratio_min,
             config_.w_error_ratio, AlertReason::kProtocolAnomaly);
  add_signal(static_cast<double>(state.no_content) / nd >=
                 config_.no_content_ratio_min,
             config_.w_no_content_ratio, AlertReason::kApiAbuse);
  add_signal(static_cast<double>(state.not_modified) / nd >=
                 config_.not_modified_ratio_min,
             config_.w_not_modified_ratio, AlertReason::kCacheSweep);
  if (n >= config_.volume_extreme) {
    add_signal(true, config_.w_volume_extreme, AlertReason::kRateLimit);
  } else if (n >= config_.volume_high) {
    add_signal(true, config_.w_volume_high, AlertReason::kRateLimit);
  } else if (n >= config_.volume_medium) {
    add_signal(true, config_.w_volume_medium, AlertReason::kRateLimit);
  }

  score = std::min(1.0, score);
  if (score >= config_.alert_threshold) {
    return {true, score, dominant};
  }
  return {false, score, AlertReason::kNone};
}

}  // namespace divscrape::detectors
