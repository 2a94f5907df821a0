// StringInterner: maps strings to dense 32-bit tokens so hot paths can key
// their state by a trivially-hashable integer instead of re-hashing and
// re-copying the same strings millions of times per run.
//
// Design notes:
//   * Tokens are dense and allocation-ordered: the first distinct string
//     gets token 1, the next token 2, ... Token 0 is reserved as "invalid /
//     not stamped" so a zero-initialized LogRecord::ua_token is harmless.
//   * Lookup is an open-addressing probe keyed by a private word-at-a-time
//     hash (8 bytes per multiply; see probe_hash in interner.cpp), so
//     intern() of an already-seen string takes no allocation and no
//     std::string construction (std::unordered_map<std::string, T> cannot
//     be probed with a string_view in C++17). The hash is paid whenever the
//     one-entry memo misses, which is most records of a multi-log merge
//     (consecutive records alternate UAs); a byte-serial hash such as
//     FNV-1a costs ~150 ns there for a 120-byte user agent.
//   * The probe hash never reaches disk: save_state() writes the strings in
//     token order and load_state() re-interns them, so tokens, the "INTN"
//     blob and every persisted hash (util::fnv1a32/fnv1a64) are independent
//     of it.
//   * Thread-compatible, not thread-safe: the intended deployment is one
//     interner per shard / per detector instance, so the hot path never
//     locks. Share across threads only with external synchronization.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/state.hpp"

namespace divscrape::util {

class StringInterner {
 public:
  /// Reserved "no token" value; intern() never returns it.
  static constexpr std::uint32_t kInvalidToken = 0;

  StringInterner();

  /// Returns the token for `text`, minting the next dense token on first
  /// sight. The only allocation is the one-time copy of a new string.
  /// Repeating the previous call's string hits a one-entry memo (a single
  /// compare, no hash) — log traffic stamps the same user-agent in bursts.
  [[nodiscard]] std::uint32_t intern(std::string_view text);

  /// The token for `text` if already interned, kInvalidToken otherwise.
  /// Never allocates; lets callers bound an interner's growth.
  [[nodiscard]] std::uint32_t find(std::string_view text) const noexcept;

  /// The string behind a token; empty view for kInvalidToken or tokens
  /// this interner never minted.
  [[nodiscard]] std::string_view lookup(std::uint32_t token) const noexcept;

  /// Number of distinct strings interned (== the highest token).
  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }
  [[nodiscard]] bool empty() const noexcept { return strings_.empty(); }

  /// Forgets everything; previously returned tokens become invalid.
  void clear();

  /// Dumps the token table as the ordered string list (token 1 first).
  /// Tokens are dense and allocation-ordered, so the list alone rebuilds
  /// the identical token assignment — including the probe-table layout,
  /// which depends only on insertion order and the in-memory probe hash.
  void save_state(StateWriter& w) const;
  /// Rebuilds from save_state() output by re-interning in token order.
  /// Returns false (leaving the interner cleared) on a malformed blob.
  [[nodiscard]] bool load_state(StateReader& r);

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t token = kInvalidToken;  ///< kInvalidToken marks an empty slot
  };

  void grow();

  std::vector<Slot> table_;        ///< power-of-two open-addressing table
  std::vector<std::string> strings_;  ///< token - 1 -> string
  std::uint32_t last_token_ = kInvalidToken;  ///< one-entry intern() memo
};

}  // namespace divscrape::util
