// Shared hashing primitives: a proper boost-style hash_combine for composite
// keys (the seed's `h1 ^ (h2 << 1)` folded most of h2's entropy onto itself)
// and the FNV-1a string hashes.
//
// Persisted hashes — never change them. fnv1a32 values reach state blobs
// (hashed past-cap UA tokens in session keys, overflow path-template
// tokens) and name the per-log checkpoint files; fnv1a64 is the tailer's
// file-prefix signature in every checkpoint. A different value there
// breaks warm resume of every existing file.
//
// In-memory only: StringInterner's probe hash (private to interner.cpp)
// places strings in its open-addressing table and is never written
// anywhere, so it is free to trade portability for speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace divscrape::util {

/// Boost-style combine: mixes `value` into `seed` with the 64-bit golden
/// ratio so that (a, b) and (b, a) hash differently and single-bit changes
/// in either input avalanche across the result.
[[nodiscard]] inline std::size_t hash_combine(std::size_t seed,
                                              std::size_t value) noexcept {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// 32-bit FNV-1a over a byte string. Cheap, decent distribution, and
/// stable across platforms (unlike std::hash<std::string>).
[[nodiscard]] inline std::uint32_t fnv1a32(std::string_view text) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

/// 64-bit FNV-1a, for content signatures that must survive serialization
/// (the tailer's file-prefix signature persisted in checkpoints).
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace divscrape::util
