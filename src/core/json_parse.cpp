#include "core/json_parse.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace divscrape::core {

namespace {

const JsonValue::Array kEmptyArray;

}  // namespace

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const noexcept {
  if (type_ != Type::kNumber) return fallback;
  // Plain non-negative integer literals are re-parsed exactly; anything
  // with a sign/fraction/exponent falls back to the double (rounded).
  std::uint64_t exact = 0;
  const auto* begin = string_.data();
  const auto* end = begin + string_.size();
  const auto parsed = std::from_chars(begin, end, exact);
  if (parsed.ec == std::errc{} && parsed.ptr == end) return exact;
  if (number_ < 0.0) return fallback;
  return static_cast<std::uint64_t>(number_);
}

std::int64_t JsonValue::as_i64(std::int64_t fallback) const noexcept {
  if (type_ != Type::kNumber) return fallback;
  std::int64_t exact = 0;
  const auto* begin = string_.data();
  const auto* end = begin + string_.size();
  const auto parsed = std::from_chars(begin, end, exact);
  if (parsed.ec == std::errc{} && parsed.ptr == end) return exact;
  return static_cast<std::int64_t>(number_);
}

const JsonValue::Array& JsonValue::array() const noexcept {
  return type_ == Type::kArray ? array_ : kEmptyArray;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.key == key) return &member.value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key,
                            double fallback) const noexcept {
  const auto* v = find(key);
  return v ? v->as_double(fallback) : fallback;
}

std::int64_t JsonValue::int_or(std::string_view key,
                               std::int64_t fallback) const noexcept {
  const auto* v = find(key);
  return v ? v->as_i64(fallback) : fallback;
}

std::uint64_t JsonValue::u64_or(std::string_view key,
                                std::uint64_t fallback) const noexcept {
  const auto* v = find(key);
  return v ? v->as_u64(fallback) : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const noexcept {
  const auto* v = find(key);
  return v && v->type_ == Type::kBool ? v->bool_ : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const auto* v = find(key);
  return std::string(v ? v->as_string_view(fallback) : fallback);
}

/// Recursive-descent parser over the input view. Never throws; failures
/// set error_ once (first error wins) and unwind via the ok() checks.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue root;
    skip_whitespace();
    if (!parse_value(root, 0)) {
      if (error) *error = error_;
      return std::nullopt;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      if (error)
        *error = at_pos("trailing characters after the JSON document");
      return std::nullopt;
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] std::string at_pos(std::string_view why) const {
    return "offset " + std::to_string(pos_) + ": " + std::string(why);
  }

  bool fail(std::string_view why) {
    if (error_.empty()) error_ = at_pos(why);
    return false;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_whitespace() noexcept {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected, std::string_view what) {
    if (at_end() || peek() != expected) return fail(what);
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 64 levels");
    if (at_end()) return fail("unexpected end of input, expected a value");
    switch (peek()) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.type_ = JsonValue::Type::kString;
        return parse_string(out.string_);
      case 't':
      case 'f':
        return parse_literal(out);
      case 'n':
        return parse_literal(out);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(JsonValue& out) {
    const auto rest = text_.substr(pos_);
    const auto starts_with = [&rest](std::string_view word) {
      return rest.substr(0, word.size()) == word;
    };
    if (starts_with("true")) {
      out.type_ = JsonValue::Type::kBool;
      out.bool_ = true;
      pos_ += 4;
      return true;
    }
    if (starts_with("false")) {
      out.type_ = JsonValue::Type::kBool;
      out.bool_ = false;
      pos_ += 5;
      return true;
    }
    if (starts_with("null")) {
      out.type_ = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return fail("expected a JSON value");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail("expected a JSON value");
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
      ++pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("digits must follow the decimal point");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail("digits must follow the exponent");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    out.type_ = JsonValue::Type::kNumber;
    out.string_.assign(text_.substr(start, pos_ - start));
    // strtod over the saved token: from_chars<double> is not universally
    // available in C++17 standard libraries.
    out.number_ = std::strtod(out.string_.c_str(), nullptr);
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("non-hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "expected '\"'")) return false;
    out.clear();
    for (;;) {
      // A run with no quote, backslash or control byte is copied whole.
      const std::size_t run = pos_;
      while (!at_end() && peek() != '"' && peek() != '\\' &&
             static_cast<unsigned char>(peek()) >= 0x20)
        ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (at_end()) return fail("unterminated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("high surrogate without a low surrogate");
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF)
              return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unexpected low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape sequence");
      }
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    if (!consume('[', "expected '['")) return false;
    out.type_ = JsonValue::Type::kArray;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      out.array_.emplace_back();
      if (!parse_value(out.array_.back(), depth + 1)) return false;
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']' in array");
      skip_whitespace();
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    if (!consume('{', "expected '{'")) return false;
    out.type_ = JsonValue::Type::kObject;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_whitespace();
      JsonValue::Member member;
      if (!parse_string(member.key)) return false;
      skip_whitespace();
      if (!consume(':', "expected ':' after object key")) return false;
      skip_whitespace();
      if (!parse_value(member.value, depth + 1)) return false;
      out.object_.push_back(std::move(member));
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

}  // namespace divscrape::core
