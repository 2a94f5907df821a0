#include "util/interner.hpp"

#include <cstring>

namespace divscrape::util {

namespace {
constexpr std::size_t kInitialSlots = 16;  // power of two

/// The probe hash: 8 bytes per multiply instead of FNV-1a's one, so a
/// ~120-byte user agent costs 15 multiplies rather than 120. It only
/// places strings in this process's probe table and is never persisted
/// (token numbering is first-seen order, whatever the hash), so it may
/// read words in native byte order and may change at any time.
std::uint32_t probe_hash(std::string_view text) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = text.data();
  std::size_t n = text.size();
  std::uint64_t h = n * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  if (n != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kMul;
  }
  // Final avalanche (MurmurHash3's fmix64): the table index takes the low
  // bits, which the multiplies alone mix poorly.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}
}  // namespace

StringInterner::StringInterner() = default;

std::uint32_t StringInterner::intern(std::string_view text) {
  // Consecutive interns of the same string (bursty user agents, repeated
  // path templates) skip the hash entirely: one length check + memcmp.
  if (last_token_ != kInvalidToken && strings_[last_token_ - 1] == text) {
    return last_token_;
  }

  // The table is allocated lazily on first intern (Sessions embed an
  // interner each; empty ones must stay byte-cheap) and grows at ~70%
  // load so probe chains stay short.
  if (table_.empty()) {
    table_.resize(kInitialSlots);
  } else if ((strings_.size() + 1) * 10 >= table_.size() * 7) {
    grow();
  }

  const std::uint32_t h = probe_hash(text);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  for (;;) {
    Slot& slot = table_[i];
    if (slot.token == kInvalidToken) {
      strings_.emplace_back(text);
      slot.hash = h;
      slot.token = static_cast<std::uint32_t>(strings_.size());
      last_token_ = slot.token;
      return slot.token;
    }
    if (slot.hash == h && strings_[slot.token - 1] == text) {
      last_token_ = slot.token;
      return slot.token;
    }
    i = (i + 1) & mask;
  }
}

std::uint32_t StringInterner::find(std::string_view text) const noexcept {
  if (table_.empty()) return kInvalidToken;
  const std::uint32_t h = probe_hash(text);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  for (;;) {
    const Slot& slot = table_[i];
    if (slot.token == kInvalidToken) return kInvalidToken;
    if (slot.hash == h && strings_[slot.token - 1] == text) return slot.token;
    i = (i + 1) & mask;
  }
}

void StringInterner::clear() {
  strings_.clear();
  table_.clear();
  last_token_ = kInvalidToken;
}

void StringInterner::save_state(StateWriter& w) const {
  put_tag(w, 0x494E544Eu /* "INTN" */, 1);
  w.u64(strings_.size());
  for (const std::string& s : strings_) w.str(s);
}

bool StringInterner::load_state(StateReader& r) {
  clear();
  if (!check_tag(r, 0x494E544Eu, 1)) return false;
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string_view s = r.str();
    if (!r.ok()) {
      clear();
      return false;
    }
    // A duplicate string in the blob would shift every later token; reject.
    if (intern(s) != i + 1) {
      clear();
      r.fail();
      return false;
    }
  }
  return true;
}

void StringInterner::grow() {
  std::vector<Slot> bigger(table_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (const Slot& slot : table_) {
    if (slot.token == kInvalidToken) continue;
    std::size_t i = slot.hash & mask;
    while (bigger[i].token != kInvalidToken) i = (i + 1) & mask;
    bigger[i] = slot;
  }
  table_.swap(bigger);
}

}  // namespace divscrape::util
