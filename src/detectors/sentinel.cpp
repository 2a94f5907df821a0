#include "detectors/sentinel.hpp"

#include <algorithm>

#include "httplog/session.hpp"
#include "httplog/useragent.hpp"

namespace divscrape::detectors {

using httplog::Timestamp;
using httplog::UaFamily;

SentinelDetector::SentinelDetector(SentinelConfig config)
    : config_(config) {}

void SentinelDetector::IpState::push(Timestamp t) {
  if (count == ring.size()) {
    // Linearize into a doubled ring (oldest entry back at index 0).
    std::vector<Timestamp> grown(ring.empty() ? 8 : ring.size() * 2,
                                 Timestamp{0});
    for (std::size_t i = 0; i < count; ++i)
      grown[i] = ring[(head + i) % ring.size()];
    ring = std::move(grown);
    head = 0;
  }
  if (count != 0 && t < at(count - 1)) monotone = false;
  ring[(head + count) % ring.size()] = t;
  ++count;
}

int SentinelDetector::IpState::count_since(Timestamp cutoff) const noexcept {
  if (monotone) {
    // Binary search for the first in-window entry (the ring is sorted).
    std::size_t lo = 0;
    std::size_t hi = count;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (at(mid) < cutoff) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int>(count - lo);
  }
  // Out-of-order arrivals (late merge emissions): preserve the historical
  // newest-backwards scan, which stops at the first too-old entry.
  int n = 0;
  for (std::size_t i = count; i-- > 0;) {
    if (at(i) < cutoff) break;
    ++n;
  }
  return n;
}

void SentinelDetector::reset() {
  ips_.clear();
  subnets_.clear();
  local_uas_.clear();
  ua_info_.clear();
  evaluations_ = 0;
  now_ = Timestamp{0};
}

std::size_t SentinelDetector::flagged_ips() const noexcept {
  std::size_t n = 0;
  for (const auto& [ip, state] : ips_)
    if (now_ < state.flagged_until) ++n;
  return n;
}

std::size_t SentinelDetector::flagged_subnets() const noexcept {
  std::size_t n = 0;
  for (const auto& [net, state] : subnets_)
    if (now_ < state.flagged_until) ++n;
  return n;
}

void SentinelDetector::flag_ip(IpState& state, httplog::Ipv4 ip,
                               Timestamp now) {
  state.flagged_until =
      now + httplog::seconds_to_micros(config_.reputation_ttl_s);
  if (!config_.enable_subnet_escalation) return;
  auto& subnet = subnets_[ip.prefix(24)];
  if (!state.counted_in_subnet) {
    state.counted_in_subnet = true;
    ++subnet.violator_ips;
  }
  if (subnet.violator_ips >= config_.subnet_flag_threshold) {
    subnet.flagged_until =
        now + httplog::seconds_to_micros(config_.reputation_ttl_s);
  }
}

void SentinelDetector::maybe_sweep(Timestamp now) {
  // Lazy state GC so multi-day streams don't accumulate every address ever
  // seen: drop idle, unflagged clients once per ~100k evaluations.
  if (++evaluations_ % 100'000 != 0) return;
  const auto idle_cutoff = now + (-httplog::seconds_to_micros(3600.0));
  for (auto it = ips_.begin(); it != ips_.end();) {
    const auto& s = it->second;
    if (s.last_seen < idle_cutoff && s.flagged_until < now &&
        !s.counted_in_subnet) {
      it = ips_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

constexpr std::uint32_t kSentinelMagic = 0x534E544Cu;  // "SNTL"

void put_config(util::StateWriter& w, const SentinelConfig& c) {
  w.f64(c.burst_window_s);
  w.i64(c.burst_limit);
  w.f64(c.sustained_window_s);
  w.i64(c.sustained_limit);
  w.f64(c.reputation_ttl_s);
  w.i64(c.subnet_flag_threshold);
  w.i64(c.stale_fingerprint_min_rate);
  w.boolean(c.enable_reputation);
  w.boolean(c.enable_subnet_escalation);
  w.boolean(c.enable_fingerprinting);
}

[[nodiscard]] bool config_matches(util::StateReader& r,
                                  const SentinelConfig& c) {
  bool same = r.f64() == c.burst_window_s;
  same &= r.i64() == c.burst_limit;
  same &= r.f64() == c.sustained_window_s;
  same &= r.i64() == c.sustained_limit;
  same &= r.f64() == c.reputation_ttl_s;
  same &= r.i64() == c.subnet_flag_threshold;
  same &= r.i64() == c.stale_fingerprint_min_rate;
  same &= r.boolean() == c.enable_reputation;
  same &= r.boolean() == c.enable_subnet_escalation;
  same &= r.boolean() == c.enable_fingerprinting;
  return same && r.ok();
}

}  // namespace

bool SentinelDetector::save_state(util::StateWriter& w) const {
  util::put_tag(w, kSentinelMagic, 1);
  put_config(w, config_);
  w.u64(evaluations_);
  w.i64(now_.micros());
  local_uas_.save_state(w);

  std::vector<std::pair<httplog::Ipv4, const IpState*>> ips;
  ips.reserve(ips_.size());
  for (const auto& [ip, state] : ips_) ips.emplace_back(ip, &state);
  std::sort(ips.begin(), ips.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(ips.size());
  for (const auto& [ip, state] : ips) {
    w.u32(ip.value());
    w.u64(state->count);
    for (std::size_t j = 0; j < state->count; ++j)
      w.i64(state->at(j).micros());  // oldest-first: same bytes as before
    w.i64(state->flagged_until.micros());
    w.boolean(state->counted_in_subnet);
    w.i64(state->last_seen.micros());
  }

  std::vector<std::pair<httplog::Ipv4, SubnetState>> subnets(
      subnets_.begin(), subnets_.end());
  std::sort(subnets.begin(), subnets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(subnets.size());
  for (const auto& [net, state] : subnets) {
    w.u32(net.value());
    w.i64(state.violator_ips);
    w.i64(state.flagged_until.micros());
  }
  return true;
}

bool SentinelDetector::load_state(util::StateReader& r) {
  reset();
  const auto fail = [&] {
    r.fail();
    reset();
    return false;
  };
  if (!util::check_tag(r, kSentinelMagic, 1)) return false;
  if (!config_matches(r, config_)) return fail();
  evaluations_ = r.u64();
  now_ = Timestamp{r.i64()};
  if (!local_uas_.load_state(r)) return fail();

  const std::uint64_t ip_count = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < ip_count; ++i) {
    const httplog::Ipv4 ip{r.u32()};
    IpState state;
    const std::uint64_t recent = r.u64();
    if (!r.ok()) break;
    for (std::uint64_t j = 0; r.ok() && j < recent; ++j)
      state.push(Timestamp{r.i64()});  // push() rederives the monotone flag
    state.flagged_until = Timestamp{r.i64()};
    state.counted_in_subnet = r.boolean();
    state.last_seen = Timestamp{r.i64()};
    if (r.ok()) ips_.emplace(ip, std::move(state));
  }

  const std::uint64_t subnet_count = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < subnet_count; ++i) {
    const httplog::Ipv4 net{r.u32()};
    SubnetState state;
    state.violator_ips = static_cast<int>(r.i64());
    state.flagged_until = Timestamp{r.i64()};
    if (r.ok()) subnets_.emplace(net, state);
  }
  if (!r.ok()) return fail();
  return true;
}

Verdict SentinelDetector::evaluate(const httplog::LogRecord& record) {
  const Timestamp now = record.time;
  now_ = now;
  maybe_sweep(now);

  const auto& ua = ua_info_.get(httplog::ua_key_token(record, local_uas_),
                                record.user_agent);
  // Good-bot allowlist: declared crawlers pass (verified out-of-band in
  // real deployments).
  if (ua.family == UaFamily::kDeclaredBot) return {};

  auto& state = ips_[record.ip];
  state.last_seen = now;
  state.push(now);
  // Eager prune (not lazy-on-read): keeps the serialized window identical
  // to the historical deque's and bounds the ring at the sustained window.
  const auto sustained_cutoff =
      now + (-httplog::seconds_to_micros(config_.sustained_window_s));
  while (state.count != 0 && state.front() < sustained_cutoff)
    state.pop_front();

  // 1. Automation signatures alert and blacklist immediately.
  if (ua.family == UaFamily::kScriptClient ||
      ua.family == UaFamily::kHeadless) {
    flag_ip(state, record.ip, now);
    return {true, 1.0, AlertReason::kBadUserAgent};
  }

  // 2. Reputation: previously-flagged client.
  if (config_.enable_reputation && now < state.flagged_until) {
    state.flagged_until =
        now + httplog::seconds_to_micros(config_.reputation_ttl_s);
    return {true, 0.95, AlertReason::kIpReputation};
  }

  // 3. Flagged neighbourhood (/24 escalation).
  if (config_.enable_subnet_escalation) {
    const auto subnet_it = subnets_.find(record.ip.prefix(24));
    if (subnet_it != subnets_.end() &&
        now < subnet_it->second.flagged_until) {
      subnet_it->second.flagged_until =
          now + httplog::seconds_to_micros(config_.reputation_ttl_s);
      return {true, 0.85, AlertReason::kSubnetReputation};
    }
  }

  // 4. Rate tripwires.
  const auto burst_cutoff =
      now + (-httplog::seconds_to_micros(config_.burst_window_s));
  const int burst = state.count_since(burst_cutoff);
  const int sustained = static_cast<int>(state.count);
  if (burst >= config_.burst_limit || sustained >= config_.sustained_limit) {
    flag_ip(state, record.ip, now);
    return {true, 1.0, AlertReason::kRateLimit};
  }

  // 5. Stale-browser fingerprint plus real activity.
  if (config_.enable_fingerprinting && ua.stale_fingerprint &&
      sustained >= config_.stale_fingerprint_min_rate) {
    flag_ip(state, record.ip, now);
    return {true, 0.9, AlertReason::kFingerprint};
  }

  // 6. Missing UA: alert without blacklisting (too weak a signal alone).
  if (ua.family == UaFamily::kEmpty) {
    return {true, 0.7, AlertReason::kBadUserAgent};
  }

  // Graded suspicion for the ROC sweep: progress toward the rate limits.
  const double progress = std::max(
      static_cast<double>(burst) / config_.burst_limit,
      static_cast<double>(sustained) / config_.sustained_limit);
  return {false, std::min(0.65, 0.65 * progress), AlertReason::kNone};
}

}  // namespace divscrape::detectors
