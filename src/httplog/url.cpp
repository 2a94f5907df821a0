#include "httplog/url.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace divscrape::httplog {

namespace {

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>((hi << 4) | lo);
        i += 2;
      } else {
        out += c;
      }
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<QueryParam> parse_query(std::string_view query) {
  std::vector<QueryParam> params;
  std::size_t start = 0;
  while (start <= query.size()) {
    const auto amp = query.find('&', start);
    const auto token = query.substr(
        start, amp == std::string_view::npos ? std::string_view::npos
                                             : amp - start);
    if (!token.empty()) {
      const auto eq = token.find('=');
      if (eq == std::string_view::npos) {
        params.push_back({url_decode(token), ""});
      } else {
        params.push_back(
            {url_decode(token.substr(0, eq)), url_decode(token.substr(eq + 1))});
      }
    }
    if (amp == std::string_view::npos) break;
    start = amp + 1;
  }
  return params;
}

std::optional<std::string> query_value(std::string_view query,
                                       std::string_view key) {
  for (auto& param : parse_query(query)) {
    if (param.key == key) return std::move(param.value);
  }
  return std::nullopt;
}

std::string path_extension(std::string_view path) {
  const auto slash = path.rfind('/');
  const auto last =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const auto dot = last.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == last.size())
    return {};
  std::string ext(last.substr(dot + 1));
  std::transform(ext.begin(), ext.end(), ext.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return ext;
}

bool is_static_asset(std::string_view path) noexcept {
  static constexpr std::array<std::string_view, 14> kAssetExts = {
      "css", "js",  "png", "jpg",  "jpeg", "gif",   "svg",
      "ico", "woff", "woff2", "ttf", "eot", "map",  "webp"};
  const std::string ext = path_extension(path);
  return std::find(kAssetExts.begin(), kAssetExts.end(), ext) !=
         kAssetExts.end();
}

void build_path_template(std::string_view path, std::string& out) {
  out.assign(1, '/');
  std::size_t start = 0;
  while (start < path.size()) {
    const auto slash = path.find('/', start);
    const std::size_t end = slash == std::string_view::npos ? path.size()
                                                            : slash;
    if (end > start) {
      const auto seg = path.substr(start, end - start);
      const bool numeric = std::all_of(
          seg.begin(), seg.end(), [](char c) { return c >= '0' && c <= '9'; });
      if (numeric) {
        out.append("{n}");
      } else {
        out.append(seg);
      }
      out += '/';
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  if (out.size() > 1) out.pop_back();  // drop trailing slash
}

}  // namespace divscrape::httplog
