#include "util/state.hpp"

namespace divscrape::util {

namespace {
constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// 0..63 for alphabet characters, 64 for '=', 255 otherwise.
std::uint8_t decode_one(char c) noexcept {
  if (c >= 'A' && c <= 'Z') return static_cast<std::uint8_t>(c - 'A');
  if (c >= 'a' && c <= 'z') return static_cast<std::uint8_t>(c - 'a' + 26);
  if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0' + 52);
  if (c == '+') return 62;
  if (c == '/') return 63;
  if (c == '=') return 64;
  return 255;
}
}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out;
  base64_append(out, bytes);
  return out;
}

void base64_append(std::string& out, std::string_view bytes) {
  const std::size_t start = out.size();
  out.resize(start + base64_size(bytes.size()));
  char* dst = out.data() + start;
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[i]));
  };
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3, dst += 4) {
    const std::uint32_t v = (byte(i) << 16) | (byte(i + 1) << 8) | byte(i + 2);
    dst[0] = kAlphabet[(v >> 18) & 63];
    dst[1] = kAlphabet[(v >> 12) & 63];
    dst[2] = kAlphabet[(v >> 6) & 63];
    dst[3] = kAlphabet[v & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest != 0) {
    const std::uint32_t v =
        (byte(i) << 16) | (rest == 2 ? byte(i + 1) << 8 : 0);
    dst[0] = kAlphabet[(v >> 18) & 63];
    dst[1] = kAlphabet[(v >> 12) & 63];
    dst[2] = rest == 2 ? kAlphabet[(v >> 6) & 63] : '=';
    dst[3] = '=';
  }
}

std::optional<std::string> base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    std::uint8_t q[4];
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      q[j] = decode_one(text[i + j]);
      if (q[j] == 255) return std::nullopt;
      if (q[j] == 64) {
        // '=' is only legal in the last group's final one or two slots.
        if (i + 4 != text.size() || j < 2) return std::nullopt;
        ++pad;
        q[j] = 0;
      } else if (pad > 0) {
        return std::nullopt;  // data after padding
      }
    }
    const std::uint32_t v = (std::uint32_t(q[0]) << 18) |
                            (std::uint32_t(q[1]) << 12) |
                            (std::uint32_t(q[2]) << 6) | std::uint32_t(q[3]);
    out.push_back(static_cast<char>((v >> 16) & 0xFF));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xFF));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xFF));
  }
  return out;
}

}  // namespace divscrape::util
