#include "core/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/state.hpp"

namespace divscrape::core {

namespace {

template <typename Int>
void append_int(std::string& out, Int number) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, number).ptr;
  out.append(digits, end);
}

}  // namespace

void JsonWriter::write_string(std::string_view text) {
  std::string& out = *out_;
  out += '"';
  std::size_t run = 0;  // start of the pending run that needs no escape
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        char escape[] = "\\u00XX";
        escape[4] = kHex[c >> 4];
        escape[5] = kHex[c & 0xF];
        out.append(escape, 6);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (wrote_top_level_)
      throw std::logic_error("JsonWriter: multiple top-level values");
    wrote_top_level_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.scope == Scope::kObject) {
    if (!top.expecting_value)
      throw std::logic_error("JsonWriter: value without key inside object");
    top.expecting_value = false;
    return;
  }
  // Array member.
  if (!top.first) *out_ += ',';
  top.first = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  *out_ += '{';
  stack_.push_back({Scope::kObject});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().scope != Scope::kObject ||
      stack_.back().expecting_value)
    throw std::logic_error("JsonWriter: mismatched end_object");
  stack_.pop_back();
  *out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  *out_ += '[';
  stack_.push_back({Scope::kArray});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().scope != Scope::kArray)
    throw std::logic_error("JsonWriter: mismatched end_array");
  stack_.pop_back();
  *out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back().scope != Scope::kObject ||
      stack_.back().expecting_value)
    throw std::logic_error("JsonWriter: key outside object");
  Frame& top = stack_.back();
  if (!top.first) *out_ += ',';
  top.first = false;
  top.expecting_value = true;
  write_string(name);
  *out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  write_string(text);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  if (std::isnan(number) || std::isinf(number)) {
    *out_ += "null";  // JSON has no NaN/Inf
  } else {
    // to_chars with a precision formats exactly as printf("%.12g").
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, number,
                                   std::chars_format::general, 12)
                         .ptr;
    out_->append(buf, end);
  }
  return *this;
}

JsonWriter& JsonWriter::value_exact(double number) {
  if (std::isnan(number) || std::isinf(number)) return value(number);
  char buf[40];
  int n = 0;
  for (int precision = 12; precision <= 17; ++precision) {
    n = std::snprintf(buf, sizeof buf, "%.*g", precision, number);
    if (std::strtod(buf, nullptr) == number) break;
  }
  before_value();
  out_->append(buf, static_cast<std::size_t>(n));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  append_int(*out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  append_int(*out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  *out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value_base64(std::string_view bytes) {
  before_value();
  *out_ += '"';
  util::base64_append(*out_, bytes);
  *out_ += '"';
  return *this;
}

}  // namespace divscrape::core
