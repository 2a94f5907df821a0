// The one JSON writer: every document the repository emits (results,
// checkpoints, session files, alert lines, bench reports, scenario specs)
// is written through it. Produces RFC 8259-conformant output: proper
// string escaping, no trailing commas, stable member order (the caller's
// call order), no whitespace.
//
// The sink is a caller-owned std::string that the writer appends to, so
// the caller decides the buffer's lifetime and may reserve() it first. A
// checkpoint reserves its whole document and hands its state blob to
// value_base64(), which encodes the raw bytes straight into that buffer:
// a multi-megabyte blob is never copied or escaped on the way out.
//
// Usage:
//   std::string out;
//   JsonWriter json(out);
//   json.begin_object();
//   json.key("name").value("sentinel");
//   json.key("alerts").value(std::uint64_t{1275056});
//   json.key("cells").begin_array();
//   json.value(1).value(2);
//   json.end_array();
//   json.end_object();
//
// The read side is core::parse_json (json_parse.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace divscrape::core {

/// Writer with nesting-state tracking. Misuse (e.g. two values without a
/// key inside an object) throws std::logic_error — catching serializer
/// bugs at the source.
class JsonWriter {
 public:
  /// Appends to `out`; what it already holds is kept.
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; must be directly inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  /// Like value(double) but with just enough digits for the literal to
  /// parse back to the identical double (shortest of %.12g..%.17g that
  /// round-trips) — for codecs whose documents must reload bit-exactly
  /// (e.g. scenario specs), where the default 12 significant digits can
  /// silently drift values like 1.0/24.0.
  JsonWriter& value_exact(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(std::int64_t{number}); }
  JsonWriter& value(bool flag);
  /// Writes raw `bytes` as a base64 string (util::base64_append, padded),
  /// encoded in place. Its alphabet needs no escaping.
  JsonWriter& value_base64(std::string_view bytes);

  /// True when every opened scope has been closed.
  [[nodiscard]] bool complete() const noexcept {
    return stack_.empty() && wrote_top_level_;
  }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value();
  /// Appends `text` quoted and escaped.
  void write_string(std::string_view text);

  std::string* out_;
  struct Frame {
    Scope scope;
    bool first = true;
    bool expecting_value = false;  ///< object: key written, value pending
  };
  std::vector<Frame> stack_;
  bool wrote_top_level_ = false;
};

}  // namespace divscrape::core
