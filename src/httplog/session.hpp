// Client identity: the (IP, User-Agent) key the detectors key their
// per-client state by and the labeller (core/labeling) its sessions, plus
// the UA classification memo behind it.
//
// Hot-path note: the User-Agent half of the key is an interned 32-bit token
// (see util/interner.hpp), not a string. There is one token space: the
// detection consumer stamps LogRecord::ua_token from its interner before
// any detector sees the record, so detectors key their state with zero
// string hashing and never intern. The labeller, which reads raw logs
// without a consumer, mints its own tokens (core/labeling.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "httplog/ip.hpp"
#include "httplog/useragent.hpp"
#include "util/hash.hpp"

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

/// The UA classification behind a stamped token, computed once per
/// distinct UA. classify_user_agent() is a scan for ~20 markers, and the
/// per-client detectors would otherwise run it once per record (Sentinel)
/// or once per new client (Arcane) although a megasite day has a few dozen
/// distinct UAs for hundreds of thousands of clients. The cache is dense,
/// indexed by token. UA cardinality is attacker-controlled, so it stops at
/// kMaxTokens: token 0 (an unstamped record) or a token past the cap is
/// classified directly on every call instead of growing state. A memo
/// only, never serialized: the result is a pure function of the UA string,
/// so an owner clears it wherever tokens may change meaning (reset,
/// load_state) and it refills with identical contents.
class UaInfoCache {
 public:
  /// Tokens above this are classified uncached.
  static constexpr std::uint32_t kMaxTokens = std::uint32_t{1} << 18;

  /// Classification of `user_agent`, whose stamped token is `token` (0 is
  /// classified uncached). The reference stays valid until the next get()
  /// or clear().
  [[nodiscard]] const UserAgentInfo& get(std::uint32_t token,
                                         std::string_view user_agent);
  void clear() noexcept;

 private:
  struct Entry {
    UserAgentInfo info;
    bool valid = false;
  };
  std::vector<Entry> entries_;  ///< index: token - 1
  UserAgentInfo uncached_;      ///< token-0 / past-cap scratch result
};

}  // namespace divscrape::httplog
