// Client identity: the (IP, User-Agent) key the detectors key their
// per-client state by and the labeller (core/labeling) its sessions, plus
// the UA classification memo behind it.
//
// Hot-path note: the User-Agent half of the key is an interned 32-bit token
// (see util/interner.hpp), not a string. Records stamped by the detection
// consumer (LogRecord::ua_token != 0) key their state with zero string
// hashing; unstamped records are interned once by the detector via
// ua_key_token(), which marks detector-minted tokens with kLocalUaTokenBit
// so they can never collide with stamped ones.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "httplog/ip.hpp"
#include "httplog/record.hpp"
#include "httplog/useragent.hpp"
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

}  // namespace divscrape::httplog
