// Sessionization: grouping a request stream into client sessions.
//
// A session is keyed by (client IP, User-Agent) — the only identity present
// in access logs — and is closed after an inactivity timeout (default 30
// minutes, the standard web-analytics convention). Sessions carry the
// aggregate features the learning-based detectors and the behavioural
// analysis consume.
//
// Hot-path note: the User-Agent half of the key is an interned 32-bit token
// (see util/interner.hpp), not a string. Records stamped at ingest
// (LogRecord::ua_token != 0) key their session state with zero string
// hashing; unstamped records are interned once by the consumer via
// ua_key_token(), which marks consumer-minted tokens with kLocalUaTokenBit
// so they can never collide with ingest-stamped ones.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "httplog/ip.hpp"
#include "httplog/record.hpp"
#include "httplog/url.hpp"
#include "httplog/useragent.hpp"
#include "stats/histogram.hpp"
#include "stats/running_stats.hpp"
#include "util/hash.hpp"
#include "util/interner.hpp"

namespace divscrape::httplog {

/// Session identity: (ip, interned user-agent token).
struct SessionKey {
  Ipv4 ip;
  std::uint32_t ua_token = 0;

  friend bool operator==(const SessionKey& a, const SessionKey& b) noexcept {
    return a.ip == b.ip && a.ua_token == b.ua_token;
  }
  friend bool operator!=(const SessionKey& a, const SessionKey& b) noexcept {
    return !(a == b);
  }
  /// Lexicographic (ip, token) order; used for deterministic emission.
  friend bool operator<(const SessionKey& a, const SessionKey& b) noexcept {
    return a.ip != b.ip ? a.ip < b.ip : a.ua_token < b.ua_token;
  }
};

struct SessionKeyHash {
  [[nodiscard]] std::size_t operator()(const SessionKey& k) const noexcept {
    return util::hash_combine(Ipv4Hash{}(k.ip), k.ua_token);
  }
};

/// Marks tokens minted by a consumer-local interner (for records that were
/// not stamped at ingest). Keeps the two token spaces disjoint so a local
/// token can never alias an ingest-stamped one.
inline constexpr std::uint32_t kLocalUaTokenBit = 0x8000'0000u;
/// Marks capped-fallback tokens derived by hashing instead of interning.
/// Disjoint from exact local tokens (those are < kMaxLocalUaTokens).
inline constexpr std::uint32_t kHashedUaTokenBit = 0x4000'0000u;
/// UA cardinality is attacker-controlled (scrapers rotate UAs), so local
/// interners stop growing here; further distinct UAs fall back to hashed
/// tokens — bounded memory at the cost of possible (hash-collision) client
/// merging past this many distinct UAs, which a string-keyed map would
/// have paid for in unbounded key storage instead.
inline constexpr std::size_t kMaxLocalUaTokens = std::size_t{1} << 18;

/// The session-key token for a record: the ingest-stamped token when
/// present, otherwise `local`'s token for the UA string (tagged with
/// kLocalUaTokenBit). One string hash for unstamped records, zero for
/// stamped ones.
[[nodiscard]] inline std::uint32_t ua_key_token(const LogRecord& record,
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

/// The UA classification behind a ua_key_token() result, computed once per
/// distinct UA. classify_user_agent() is a scan for ~20 markers, and the
/// per-client detectors would otherwise run it once per record (Sentinel)
/// or once per new client (Arcane) although a megasite day has a few dozen
/// distinct UAs for hundreds of thousands of clients. Stamped and locally
/// interned tokens are indexed in separate dense caches (their token
/// spaces are independent). UA cardinality is attacker-controlled, so
/// both caches stop at kMaxLocalUaTokens: a hashed token, or a stamped
/// token past the cap, is classified directly on every call instead of
/// growing state. A memo only, never serialized: the result is a pure
/// function of the UA string, so an owner clears it wherever its token
/// spaces may change meaning (reset, load_state) and it refills with
/// identical contents.
class UaInfoCache {
 public:
  /// Classification of `user_agent`, whose key token is `key` (the
  /// ua_key_token() of the same record; 0 is classified uncached). The
  /// reference stays valid until the next get() or clear().
  [[nodiscard]] const UserAgentInfo& get(std::uint32_t key,
                                         std::string_view user_agent);
  void clear() noexcept;

 private:
  struct Entry {
    UserAgentInfo info;
    bool valid = false;
  };
  std::vector<Entry> stamped_;  ///< index: stamped token - 1
  std::vector<Entry> local_;    ///< index: local token - 1
  UserAgentInfo uncached_;      ///< past-cap scratch result
};

/// Aggregate view of one client session.
class Session {
 public:
  explicit Session(SessionKey key, Timestamp first_seen);

  /// Folds one record into the aggregates. Records are expected in time
  /// order (the sessionizer guarantees it).
  void add(const LogRecord& record);

  [[nodiscard]] const SessionKey& key() const noexcept { return key_; }
  /// The User-Agent string of the session's first record (all records of a
  /// session share one UA — the key guarantees it). Empty before add().
  [[nodiscard]] const std::string& user_agent() const noexcept { return ua_; }
  /// UA classification, computed once per session (the seed classified on
  /// every feature extraction).
  [[nodiscard]] const UserAgentInfo& ua_info() const noexcept {
    return ua_info_;
  }
  [[nodiscard]] std::uint64_t request_count() const noexcept { return count_; }
  [[nodiscard]] Timestamp first_seen() const noexcept { return first_; }
  [[nodiscard]] Timestamp last_seen() const noexcept { return last_; }
  /// Session duration in seconds (0 for single-request sessions).
  [[nodiscard]] double duration_s() const noexcept;
  /// Mean requests per second over the session (count / duration); count
  /// when duration is 0.
  [[nodiscard]] double request_rate() const noexcept;
  /// Inter-arrival statistics (seconds).
  [[nodiscard]] const stats::RunningStats& interarrival() const noexcept {
    return interarrival_;
  }
  /// Fraction of requests that fetched static assets (css/js/images).
  [[nodiscard]] double asset_ratio() const noexcept;
  /// Fraction of requests carrying a non-"-" Referer.
  [[nodiscard]] double referer_ratio() const noexcept;
  /// Fraction of 4xx responses.
  [[nodiscard]] double error_ratio() const noexcept;
  /// Fraction of HEAD requests.
  [[nodiscard]] double head_ratio() const noexcept;
  /// Shannon entropy (bits) over normalized path templates; low entropy
  /// with high volume is the catalogue-sweep signature.
  [[nodiscard]] double template_entropy() const noexcept;
  /// Distinct concrete paths visited.
  [[nodiscard]] std::size_t distinct_paths() const noexcept {
    return paths_.distinct_paths();
  }
  /// Whether the session ever fetched /robots.txt.
  [[nodiscard]] bool fetched_robots() const noexcept { return robots_; }
  /// Per-status counts.
  [[nodiscard]] const stats::Counter<int>& status_counts() const noexcept {
    return status_;
  }
  /// Majority truth of member records (simulation metadata).
  [[nodiscard]] Truth majority_truth() const noexcept;

  /// Dump of every aggregate (warm checkpointing). The UA classification is
  /// recomputed from the stored UA string on load, not serialized.
  void save_state(util::StateWriter& w) const;
  /// Restores a session from save_state() output; nullopt on a malformed
  /// blob (Session has no default construction, hence the factory form).
  [[nodiscard]] static std::optional<Session> load_state(util::StateReader& r);

 private:
  SessionKey key_;
  std::string ua_;  ///< captured from the first record
  UserAgentInfo ua_info_{UaFamily::kEmpty, 0, false, false, false};
  std::uint64_t count_ = 0;
  Timestamp first_;
  Timestamp last_;
  stats::RunningStats interarrival_;
  std::uint64_t assets_ = 0;
  std::uint64_t with_referer_ = 0;
  std::uint64_t errors_4xx_ = 0;
  std::uint64_t heads_ = 0;
  bool robots_ = false;
  // Paths and their templates are interned session-locally: counting exact
  // 32-bit tokens is bijective with counting the strings themselves (same
  // entropy, same distinct counts) but costs one probe instead of a string
  // copy plus O(log n) string compares per record.
  PathTemplateMemo paths_;
  stats::Counter<std::uint32_t> templates_;
  stats::Counter<int> status_;
  std::uint64_t malicious_ = 0;
  std::uint64_t benign_ = 0;
};

/// Streaming sessionizer. Feed records in global time order; completed
/// sessions (closed by inactivity or by flush_all) are handed to the sink.
class Sessionizer {
 public:
  using Sink = std::function<void(Session&&)>;

  /// `idle_timeout_s`: inactivity gap that closes a session.
  explicit Sessionizer(double idle_timeout_s = 1800.0, Sink sink = {});

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// The session key this sessionizer uses for a record (stamped token or
  /// a token from the sessionizer's own interner). Exposed so callers that
  /// post-process by client (e.g. the labeler's second pass) key their maps
  /// identically to the sessions they received from the sink.
  [[nodiscard]] SessionKey key_for(const LogRecord& record) {
    return SessionKey{record.ip, ua_key_token(record, local_uas_)};
  }

  /// Feeds one record; may emit zero or more completed sessions first.
  void add(const LogRecord& record);

  /// Closes and emits every open session (end of stream), ordered by
  /// (first_seen, key) so downstream consumers are hash-order independent.
  void flush_all();

  [[nodiscard]] std::size_t open_sessions() const noexcept {
    return open_.size();
  }
  [[nodiscard]] std::uint64_t completed_sessions() const noexcept {
    return completed_;
  }

  /// Dump of the sessionizer's warm state: the local UA interner, every
  /// open session window (sorted by key for deterministic bytes), the
  /// completed count, and the sweep clock. Timeout and sink stay
  /// construction-time config.
  void save_state(util::StateWriter& w) const;
  /// Restores from save_state() output. Returns false — with the
  /// sessionizer reset to cold/empty — on a malformed blob.
  [[nodiscard]] bool load_state(util::StateReader& r);

 private:
  void expire_older_than(Timestamp cutoff);
  void emit_sorted(std::vector<Session>&& batch);

  double idle_timeout_s_;
  Sink sink_;
  util::StringInterner local_uas_;
  std::unordered_map<SessionKey, Session, SessionKeyHash> open_;
  std::uint64_t completed_ = 0;
  Timestamp last_sweep_;
};

/// Convenience: sessionize a whole in-memory stream and return all sessions.
[[nodiscard]] std::vector<Session> sessionize(
    const std::vector<LogRecord>& records, double idle_timeout_s = 1800.0);

}  // namespace divscrape::httplog
