// The one JSON reader: core::parse_json, the read-side counterpart to
// core::JsonWriter. Every JSON document the repository loads goes through
// it: checkpoint files (pipeline::Checkpoint, whose field reader also
// serves the log entries of tail_session.state.json), session files
// (pipeline::TailSessionState) and scenario specs (workload::ScenarioSpec).
// The other documents — results, alert lines, bench reports — are
// write-only here; CI reads them back with an independent parser.
//
// It is a plain recursive-descent parser into an owning DOM value, with
// positions in error messages and a nesting-depth limit instead of
// cleverness. RFC 8259 input is accepted: objects, arrays, strings (with
// \uXXXX escapes, surrogate pairs included), numbers, booleans, null.
//
// Design notes:
//   * Objects preserve member order in a flat vector (no std::map): specs
//     round-trip in the order the writer emitted, and lookup sets are far
//     too small for hashing to matter.
//   * Numbers are stored as double. Unsigned 64-bit values above 2^53
//     (e.g. hash-valued seeds, checkpoint signatures) would lose precision
//     through a double, so `as_u64` re-reads the original token text when
//     it was a plain integer literal.
//   * Duplicate keys keep the first occurrence (find() returns the first),
//     matching what a streaming reader would do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace divscrape::core {

/// One parsed JSON value; a whole document is the root value.
class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  struct Member;  // {key, value}
  using Object = std::vector<Member>;

  JsonValue() = default;

  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }

  /// Typed reads with a fallback for absent/mistyped values.
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  /// Precision-preserving unsigned read: parses the literal token again
  /// when the value was written as a plain non-negative integer (doubles
  /// cannot carry a full 64-bit seed or hash).
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept;
  [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] std::string_view as_string_view(
      std::string_view fallback = {}) const noexcept {
    return type_ == Type::kString ? std::string_view(string_) : fallback;
  }

  /// Array elements; empty for a non-array.
  [[nodiscard]] const Array& array() const noexcept;

  /// First member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  // --- object member convenience reads (fallback on absent/mistyped) ---
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) const noexcept;
  [[nodiscard]] std::uint64_t u64_or(std::string_view key,
                                     std::uint64_t fallback) const noexcept;
  [[nodiscard]] bool bool_or(std::string_view key,
                             bool fallback) const noexcept;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;   ///< string value; for numbers, the literal token
  Array array_;
  Object object_;
};

struct JsonValue::Member {
  std::string key;
  JsonValue value;
};

/// Parses one complete JSON document (leading/trailing whitespace allowed,
/// anything else after the root value is an error). On failure returns
/// nullopt and, when `error` is non-null, a one-line "offset N: why"
/// description.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace divscrape::core
