#include "core/labeling.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "httplog/session.hpp"
#include "util/hash.hpp"
#include "util/interner.hpp"

namespace divscrape::core {

namespace {

/// Marks tokens minted by a consumer-local interner (for records that were
/// not stamped at ingest). Keeps the two token spaces disjoint so a local
/// token can never alias an ingest-stamped one.
constexpr std::uint32_t kLocalUaTokenBit = 0x8000'0000u;
/// Marks capped-fallback tokens derived by hashing instead of interning.
/// Disjoint from exact local tokens (those are < kMaxLocalUaTokens).
constexpr std::uint32_t kHashedUaTokenBit = 0x4000'0000u;
/// UA cardinality is attacker-controlled (scrapers rotate UAs), so local
/// interners stop growing here; further distinct UAs fall back to hashed
/// tokens — bounded memory at the cost of possible (hash-collision) client
/// merging past this many distinct UAs, which a string-keyed map would
/// have paid for in unbounded key storage instead.
constexpr std::size_t kMaxLocalUaTokens = std::size_t{1} << 18;

/// The session-key token for a record: the ingest-stamped token when
/// present, otherwise `local`'s token for the UA string (tagged with
/// kLocalUaTokenBit). One string hash for unstamped records, zero for
/// stamped ones.
[[nodiscard]] std::uint32_t ua_key_token(const httplog::LogRecord& record,
                                         util::StringInterner& local) {
  if (record.ua_token != util::StringInterner::kInvalidToken)
    return record.ua_token;
  std::uint32_t token = local.find(record.user_agent);
  if (token == util::StringInterner::kInvalidToken) {
    if (local.size() >= kMaxLocalUaTokens) {
      return (util::fnv1a32(record.user_agent) & ~kLocalUaTokenBit) |
             kLocalUaTokenBit | kHashedUaTokenBit;
    }
    token = local.intern(record.user_agent);
  }
  return token | kLocalUaTokenBit;
}

}  // namespace

void Session::add(const httplog::LogRecord& record) {
  if (count_ == 0) {
    ua_info_ = httplog::classify_user_agent(record.user_agent);
    first_ = last_ = record.time;
  }
  ++count_;
  first_ = std::min(first_, record.time);
  last_ = std::max(last_, record.time);
  const auto path = record.path();
  if (httplog::is_static_asset(path)) ++assets_;
  if (record.referer != "-" && !record.referer.empty()) ++with_referer_;
  if (record.status >= 400 && record.status < 500) ++errors_4xx_;
  templates_.add(paths_.token(path));
}

double Session::duration_s() const noexcept {
  return static_cast<double>(last_ - first_) / 1e6;
}

double Session::request_rate() const noexcept {
  const double d = duration_s();
  if (d <= 0.0) return static_cast<double>(count_);
  return static_cast<double>(count_) / d;
}

namespace {
double share(std::uint64_t part, std::uint64_t count) noexcept {
  return count == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(count);
}
}  // namespace

double Session::asset_ratio() const noexcept { return share(assets_, count_); }

double Session::referer_ratio() const noexcept {
  return share(with_referer_, count_);
}

double Session::error_ratio() const noexcept {
  return share(errors_4xx_, count_);
}

double Session::template_entropy() const noexcept {
  return stats::shannon_entropy(templates_);
}

HeuristicLabeler::HeuristicLabeler(LabelerConfig config) : config_(config) {}

httplog::Truth HeuristicLabeler::judge(const Session& session) const {
  using httplog::Truth;
  if (session.request_count() < config_.min_session_requests)
    return Truth::kUnknown;

  const auto& ua = session.ua_info();
  // Declared crawlers: benign by the paper's definition of "malicious".
  if (ua.declared_bot) return Truth::kBenign;

  int bot_score = 0;
  int human_score = 0;

  // Hard automation markers are decisive on their own.
  if (ua.scripted) bot_score += config_.decision_margin + 1;
  if (ua.family == httplog::UaFamily::kEmpty) ++bot_score;

  if (session.request_rate() >= config_.bot_rate_rps) ++bot_score;
  if (session.request_count() >= config_.bot_min_requests_for_starvation &&
      session.asset_ratio() <= config_.bot_max_asset_ratio)
    ++bot_score;
  if (session.template_entropy() <= config_.bot_max_template_entropy &&
      session.request_count() >= config_.bot_min_requests_for_starvation)
    ++bot_score;
  if (session.referer_ratio() <= config_.bot_max_referer_ratio) ++bot_score;
  if (session.error_ratio() >= config_.bot_min_error_ratio) ++bot_score;

  if (session.asset_ratio() >= config_.human_min_asset_ratio) ++human_score;
  if (session.referer_ratio() >= config_.human_min_referer_ratio)
    ++human_score;
  if (session.template_entropy() >= config_.human_min_template_entropy)
    ++human_score;
  if (session.request_rate() <= config_.human_max_rate_rps) ++human_score;

  if (bot_score - human_score >= config_.decision_margin)
    return Truth::kMalicious;
  if (human_score - bot_score >= config_.decision_margin)
    return Truth::kBenign;
  return Truth::kUnknown;
}

LabelingResult HeuristicLabeler::label(
    std::vector<httplog::LogRecord>& records) const {
  LabelingResult result;
  result.records = records.size();

  // One open session per client, holding the indices of its records.
  struct OpenSession {
    Session session;
    std::vector<std::size_t> members;
  };
  std::unordered_map<httplog::SessionKey, OpenSession, httplog::SessionKeyHash>
      open;
  util::StringInterner local_uas;
  const auto timeout_us =
      httplog::seconds_to_micros(config_.session_timeout_s);
  // The stream clock: the largest timestamp seen so far.
  httplog::Timestamp clock =
      records.empty() ? httplog::Timestamp{} : records.front().time;
  const auto expired = [&](const OpenSession& s) {
    return clock - s.session.last_seen() > timeout_us;
  };
  const auto close = [&](const OpenSession& s) {
    const httplog::Truth verdict = judge(s.session);
    for (const std::size_t i : s.members) records[i].truth = verdict;
    const auto n = static_cast<std::uint64_t>(s.members.size());
    switch (verdict) {
      case httplog::Truth::kMalicious: result.labeled_malicious += n; break;
      case httplog::Truth::kBenign: result.labeled_benign += n; break;
      case httplog::Truth::kUnknown: result.left_unknown += n; break;
    }
  };

  httplog::Timestamp last_sweep = clock;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const httplog::LogRecord& record = records[i];
    clock = std::max(clock, record.time);
    // The sweep only bounds memory: a session is closed by the clock
    // whether the sweep or the client's next request notices it first.
    if (clock - last_sweep > timeout_us) {
      for (auto it = open.begin(); it != open.end();) {
        if (expired(it->second)) {
          close(it->second);
          it = open.erase(it);
        } else {
          ++it;
        }
      }
      last_sweep = clock;
    }
    const httplog::SessionKey key{record.ip, ua_key_token(record, local_uas)};
    auto [it, fresh] = open.try_emplace(key);
    if (!fresh && expired(it->second)) {
      close(it->second);
      it->second = OpenSession{};
    }
    it->second.session.add(record);
    it->second.members.push_back(i);
  }
  for (const auto& entry : open) close(entry.second);
  return result;
}

LabelAudit HeuristicLabeler::audit(
    const std::vector<httplog::Truth>& reference,
    const std::vector<httplog::LogRecord>& labeled) {
  if (reference.size() != labeled.size())
    throw std::invalid_argument("LabelAudit: size mismatch");
  LabelAudit audit;
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    const auto verdict = labeled[i].truth;
    if (verdict == httplog::Truth::kUnknown ||
        reference[i] == httplog::Truth::kUnknown)
      continue;
    ++audit.decided;
    if (verdict == reference[i]) {
      ++audit.agree;
    } else if (verdict == httplog::Truth::kMalicious) {
      ++audit.false_malicious;
    } else {
      ++audit.false_benign;
    }
  }
  return audit;
}

}  // namespace divscrape::core
