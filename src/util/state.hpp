// Binary state serialization for warm checkpoints.
//
// Every stateful component (detectors, sessionizer, joint results, the
// interner token tables) dumps itself through a StateWriter and restores
// through a StateReader so a killed tail can resume *warm* — byte-identical
// to an uninterrupted run — instead of forfeiting session windows and
// reputation state (see pipeline/checkpoint.hpp for the contract).
//
// Design notes:
//   * The encoding is explicit little-endian with fixed-width fields, so a
//     blob written on one host loads on another regardless of native byte
//     order or type widths. Doubles travel as their IEEE-754 bit pattern —
//     restore is bit-exact, which the byte-identity resume proof requires.
//   * Readers are bounds-checked with a sticky failure flag: a truncated or
//     corrupted blob turns every subsequent read into a zero and ok() into
//     false, so loaders check once at the end instead of after every field.
//     Loading never throws and never reads out of bounds.
//   * Each component prefixes its section with a magic/version tag
//     (put_tag/check_tag); a version bump fails the load cleanly and the
//     caller falls back to a cold start.
//   * Containers with nondeterministic iteration order (unordered_map) must
//     be serialized in sorted key order by the caller: serialize → restore
//     → serialize must reproduce the identical byte string (the round-trip
//     property the state tests pin).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace divscrape::util {

/// Appends fixed-width little-endian fields to a growing byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(b, 4);
  }

  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(b, 8);
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 bit pattern; restore is bit-exact (no text round-trip).
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string (also used for nested component blobs).
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte buffer; failures are sticky.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_ - 1]);
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(static_cast<unsigned char>(data_[pos_ - 4 + i]))
           << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(static_cast<unsigned char>(data_[pos_ - 8 + i]))
           << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() { return u8() != 0; }

  /// Length-prefixed byte string; a view into the underlying buffer (valid
  /// while the buffer lives). Empty view on failure.
  std::string_view str() {
    const std::uint64_t n = u64();
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// Marks the blob invalid (loaders call this on semantic violations —
  /// e.g. a count that contradicts a re-derived one).
  void fail() noexcept { ok_ = false; }

 private:
  [[nodiscard]] bool take(std::size_t n) noexcept {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Component section header: magic identifies the component, version its
/// wire format. A mismatch on load is the "cold fallback" signal.
inline void put_tag(StateWriter& w, std::uint32_t magic,
                    std::uint32_t version) {
  w.u32(magic);
  w.u32(version);
}

[[nodiscard]] inline bool check_tag(StateReader& r, std::uint32_t magic,
                                    std::uint32_t version) {
  const std::uint32_t m = r.u32();
  const std::uint32_t v = r.u32();
  if (!r.ok() || m != magic || v != version) {
    r.fail();
    return false;
  }
  return true;
}

// --- key/value helpers for generic containers (stats::Counter) -----------

inline void put_value(StateWriter& w, std::uint32_t v) { w.u32(v); }
inline void put_value(StateWriter& w, std::uint64_t v) { w.u64(v); }
inline void put_value(StateWriter& w, int v) {
  w.i64(static_cast<std::int64_t>(v));
}
inline void put_value(StateWriter& w, const std::string& v) { w.str(v); }

[[nodiscard]] inline bool get_value(StateReader& r, std::uint32_t& v) {
  v = r.u32();
  return r.ok();
}
[[nodiscard]] inline bool get_value(StateReader& r, std::uint64_t& v) {
  v = r.u64();
  return r.ok();
}
[[nodiscard]] inline bool get_value(StateReader& r, int& v) {
  v = static_cast<int>(r.i64());
  return r.ok();
}
[[nodiscard]] inline bool get_value(StateReader& r, std::string& v) {
  v = std::string(r.str());
  return r.ok();
}

// --- base64 (state blobs embedded in JSON checkpoints) --------------------

/// Standard base64 with padding; the alphabet contains no JSON-escapable
/// characters, so encoded blobs embed in JSON strings verbatim.
[[nodiscard]] std::string base64_encode(std::string_view bytes);

/// Length of the base64 encoding of `bytes` bytes (padding included).
[[nodiscard]] constexpr std::size_t base64_size(std::size_t bytes) noexcept {
  return (bytes + 2) / 3 * 4;
}

/// Appends the base64 encoding of `bytes` to `out` in place, growing it by
/// exactly base64_size(bytes.size()) — the one encoder behind
/// base64_encode() and the checkpoint writers, which reserve the whole
/// document up front and so never copy the encoded blob.
void base64_append(std::string& out, std::string_view bytes);

/// Strict decode of what base64_encode produces; nullopt on any character
/// outside the alphabet, bad length, or bad padding.
[[nodiscard]] std::optional<std::string> base64_decode(std::string_view text);

}  // namespace divscrape::util
