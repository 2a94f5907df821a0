#include "httplog/session.hpp"

#include <algorithm>

namespace divscrape::httplog {

const UserAgentInfo& UaInfoCache::get(std::uint32_t key,
                                      std::string_view user_agent) {
  const bool local = (key & kLocalUaTokenBit) != 0;
  // A hashed token keeps kHashedUaTokenBit, which lies above the cap.
  static_assert(kHashedUaTokenBit > kMaxLocalUaTokens);
  const std::uint32_t token = key & ~kLocalUaTokenBit;
  if (token == 0 || token > kMaxLocalUaTokens) {
    uncached_ = classify_user_agent(user_agent);
    return uncached_;
  }
  auto& cache = local ? local_ : stamped_;
  if (cache.size() < token) cache.resize(token);
  Entry& entry = cache[token - 1];
  if (!entry.valid) {
    entry.info = classify_user_agent(user_agent);
    entry.valid = true;
  }
  return entry.info;
}

void UaInfoCache::clear() noexcept {
  stamped_.clear();
  local_.clear();
}

Session::Session(SessionKey key, Timestamp first_seen)
    : key_(key), first_(first_seen), last_(first_seen) {}

void Session::add(const LogRecord& record) {
  if (count_ > 0) {
    const double gap_s =
        static_cast<double>(record.time - last_) / 1e6;
    interarrival_.add(gap_s < 0.0 ? 0.0 : gap_s);
  } else {
    ua_ = record.user_agent;
    ua_info_ = classify_user_agent(ua_);
  }
  ++count_;
  last_ = std::max(last_, record.time);
  const auto path = record.path();
  if (is_static_asset(path)) ++assets_;
  if (record.referer != "-" && !record.referer.empty()) ++with_referer_;
  if (record.status >= 400 && record.status < 500) ++errors_4xx_;
  if (record.method == HttpMethod::kHead) ++heads_;
  if (path == "/robots.txt") robots_ = true;

  templates_.add(paths_.template_token(path));
  status_.add(record.status);
  if (record.truth == Truth::kMalicious)
    ++malicious_;
  else if (record.truth == Truth::kBenign)
    ++benign_;
}

double Session::duration_s() const noexcept {
  return static_cast<double>(last_ - first_) / 1e6;
}

double Session::request_rate() const noexcept {
  const double d = duration_s();
  if (d <= 0.0) return static_cast<double>(count_);
  return static_cast<double>(count_) / d;
}

double Session::asset_ratio() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(assets_) /
                           static_cast<double>(count_);
}

double Session::referer_ratio() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(with_referer_) /
                           static_cast<double>(count_);
}

double Session::error_ratio() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(errors_4xx_) /
                           static_cast<double>(count_);
}

double Session::head_ratio() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(heads_) /
                           static_cast<double>(count_);
}

double Session::template_entropy() const noexcept {
  return stats::shannon_entropy(templates_);
}

Truth Session::majority_truth() const noexcept {
  if (malicious_ == 0 && benign_ == 0) return Truth::kUnknown;
  return malicious_ >= benign_ ? Truth::kMalicious : Truth::kBenign;
}

Sessionizer::Sessionizer(double idle_timeout_s, Sink sink)
    : idle_timeout_s_(idle_timeout_s), sink_(std::move(sink)) {}

void Sessionizer::add(const LogRecord& record) {
  // Periodic sweep: expiring on every record would be O(n * sessions), so
  // sweep at most once per timeout interval of simulated time.
  const auto timeout_us = seconds_to_micros(idle_timeout_s_);
  if (record.time - last_sweep_ > timeout_us) {
    expire_older_than(Timestamp{record.time.micros() - timeout_us});
    last_sweep_ = record.time;
  }

  const SessionKey key = key_for(record);
  auto it = open_.find(key);
  if (it != open_.end()) {
    const double gap_s =
        static_cast<double>(record.time - it->second.last_seen()) / 1e6;
    if (gap_s > idle_timeout_s_) {
      Session done = std::move(it->second);
      open_.erase(it);
      ++completed_;
      if (sink_) sink_(std::move(done));
      it = open_.end();
    }
  }
  if (it == open_.end()) {
    it = open_.emplace(key, Session(key, record.time)).first;
  }
  it->second.add(record);
}

void Sessionizer::emit_sorted(std::vector<Session>&& batch) {
  // Hash-map iteration order depends on the key's hash values; sorting by
  // (first_seen, key) makes emission deterministic across platforms and
  // key representations.
  std::sort(batch.begin(), batch.end(), [](const Session& a,
                                           const Session& b) {
    if (a.first_seen() != b.first_seen()) return a.first_seen() < b.first_seen();
    return a.key() < b.key();
  });
  for (auto& session : batch) {
    ++completed_;
    if (sink_) sink_(std::move(session));
  }
}

void Sessionizer::expire_older_than(Timestamp cutoff) {
  std::vector<Session> expired;
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.last_seen() < cutoff) {
      expired.push_back(std::move(it->second));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  emit_sorted(std::move(expired));
}

void Sessionizer::flush_all() {
  std::vector<Session> remaining;
  remaining.reserve(open_.size());
  for (auto& [key, session] : open_) remaining.push_back(std::move(session));
  open_.clear();
  emit_sorted(std::move(remaining));
}

namespace {
constexpr std::uint32_t kSessionMagic = 0x53455353u;      // "SESS"
constexpr std::uint32_t kSessionizerMagic = 0x53534E5Au;  // "SSNZ"
}  // namespace

void Session::save_state(util::StateWriter& w) const {
  util::put_tag(w, kSessionMagic, 1);
  w.u32(key_.ip.value());
  w.u32(key_.ua_token);
  w.str(ua_);
  w.u64(count_);
  w.i64(first_.micros());
  w.i64(last_.micros());
  interarrival_.save_state(w);
  w.u64(assets_);
  w.u64(with_referer_);
  w.u64(errors_4xx_);
  w.u64(heads_);
  w.boolean(robots_);
  paths_.save_state(w);
  templates_.save_state(w);
  status_.save_state(w);
  w.u64(malicious_);
  w.u64(benign_);
}

std::optional<Session> Session::load_state(util::StateReader& r) {
  if (!util::check_tag(r, kSessionMagic, 1)) return std::nullopt;
  const Ipv4 ip{r.u32()};
  const std::uint32_t ua_token = r.u32();
  Session s(SessionKey{ip, ua_token}, Timestamp{0});
  s.ua_ = std::string(r.str());
  s.count_ = r.u64();
  s.first_ = Timestamp{r.i64()};
  s.last_ = Timestamp{r.i64()};
  if (!s.interarrival_.load_state(r)) return std::nullopt;
  s.assets_ = r.u64();
  s.with_referer_ = r.u64();
  s.errors_4xx_ = r.u64();
  s.heads_ = r.u64();
  s.robots_ = r.boolean();
  if (!s.paths_.load_state(r)) return std::nullopt;
  if (!s.templates_.load_state(r)) return std::nullopt;
  if (!s.status_.load_state(r)) return std::nullopt;
  s.malicious_ = r.u64();
  s.benign_ = r.u64();
  if (!r.ok()) return std::nullopt;
  if (s.count_ > 0) s.ua_info_ = classify_user_agent(s.ua_);
  return s;
}

void Sessionizer::save_state(util::StateWriter& w) const {
  util::put_tag(w, kSessionizerMagic, 1);
  local_uas_.save_state(w);
  w.u64(completed_);
  w.i64(last_sweep_.micros());
  std::vector<const Session*> open;
  open.reserve(open_.size());
  for (const auto& [key, session] : open_) open.push_back(&session);
  std::sort(open.begin(), open.end(), [](const Session* a, const Session* b) {
    return a->key() < b->key();
  });
  w.u64(open.size());
  for (const Session* s : open) s->save_state(w);
}

bool Sessionizer::load_state(util::StateReader& r) {
  const auto cold = [this] {
    local_uas_.clear();
    open_.clear();
    completed_ = 0;
    last_sweep_ = Timestamp{0};
  };
  cold();
  if (!util::check_tag(r, kSessionizerMagic, 1)) return false;
  if (!local_uas_.load_state(r)) return false;
  completed_ = r.u64();
  last_sweep_ = Timestamp{r.i64()};
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    auto session = Session::load_state(r);
    if (!session) {
      cold();
      return false;
    }
    const SessionKey key = session->key();
    open_.emplace(key, std::move(*session));
  }
  if (!r.ok()) {
    cold();
    return false;
  }
  return true;
}

std::vector<Session> sessionize(const std::vector<LogRecord>& records,
                                double idle_timeout_s) {
  std::vector<Session> out;
  Sessionizer sessionizer(idle_timeout_s,
                          [&out](Session&& s) { out.push_back(std::move(s)); });
  for (const auto& r : records) sessionizer.add(r);
  sessionizer.flush_all();
  return out;
}

}  // namespace divscrape::httplog
