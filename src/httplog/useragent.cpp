#include "httplog/useragent.hpp"

#include <array>
#include <charconv>
#include <string>

namespace divscrape::httplog {

namespace {

// Extracts the integer right after "token/" (e.g. "Chrome/64.0" -> 64).
int version_after(std::string_view ua, std::string_view token) {
  const auto pos = ua.find(token);
  if (pos == std::string_view::npos) return 0;
  const char* begin = ua.data() + pos + token.size();
  const char* end = ua.data() + ua.size();
  int value = 0;
  const auto [next, ec] = std::from_chars(begin, end, value);
  return ec == std::errc{} && next != begin ? value : 0;
}

// Markers are matched case-insensitively: the UA is lowercased once and
// searched for these lowercase forms. The named crawlers that contain
// "bot" or "spider" (Googlebot, bingbot, DuckDuckBot, Baiduspider,
// YandexBot, AhrefsBot, UptimeRobot) are caught by the generic markers,
// which classify them identically, so only "slurp" needs its own entry.
constexpr std::array<std::string_view, 4> kDeclaredBotMarkers = {
    "slurp", "bot", "spider", "crawler"};

constexpr std::array<std::string_view, 9> kScriptMarkers = {
    "curl/",          "python-requests", "python-urllib", "scrapy",
    "go-http-client", "java/",           "okhttp",        "libwww-perl",
    "wget"};

constexpr std::array<std::string_view, 3> kHeadlessMarkers = {
    "headlesschrome", "phantomjs", "slimerjs"};

/// ASCII lowercasing: what std::tolower does in the "C" locale the program
/// runs in, without its per-character call.
char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

template <std::size_t N>
bool contains_any(std::string_view lower,
                  const std::array<std::string_view, N>& markers) {
  for (const auto marker : markers) {
    if (lower.find(marker) != std::string_view::npos) return true;
  }
  return false;
}

}  // namespace

std::string_view to_string(UaFamily f) noexcept {
  switch (f) {
    case UaFamily::kBrowser: return "browser";
    case UaFamily::kDeclaredBot: return "declared-bot";
    case UaFamily::kScriptClient: return "script-client";
    case UaFamily::kHeadless: return "headless";
    case UaFamily::kEmpty: return "empty";
    case UaFamily::kUnknown: return "unknown";
  }
  return "unknown";
}

UserAgentInfo classify_user_agent(std::string_view ua) {
  UserAgentInfo info;
  if (ua.empty() || ua == "-") {
    info.family = UaFamily::kEmpty;
    return info;
  }
  // Lowercase once; every marker is then a plain substring search. UAs
  // are a few hundred bytes at most, so the stack buffer nearly always
  // suffices.
  char small[512];
  std::string large;
  char* buffer = small;
  if (ua.size() > sizeof small) {
    large.resize(ua.size());
    buffer = large.data();
  }
  for (std::size_t i = 0; i < ua.size(); ++i) buffer[i] = ascii_lower(ua[i]);
  const std::string_view lower(buffer, ua.size());

  if (contains_any(lower, kHeadlessMarkers)) {
    info.family = UaFamily::kHeadless;
    info.scripted = true;
    info.browser_major = version_after(ua, "HeadlessChrome/");
    return info;
  }
  // Named and generic self-declared crawlers ("FooBot/1.2", "...spider...").
  if (contains_any(lower, kDeclaredBotMarkers)) {
    info.family = UaFamily::kDeclaredBot;
    info.declared_bot = true;
    return info;
  }
  if (contains_any(lower, kScriptMarkers)) {
    info.family = UaFamily::kScriptClient;
    info.scripted = true;
    return info;
  }
  if (ua.find("Mozilla/") != std::string_view::npos) {
    info.family = UaFamily::kBrowser;
    if (const int v = version_after(ua, "Chrome/"); v > 0) {
      info.browser_major = v;
      info.stale_fingerprint = v < 50;
    } else if (const int fx = version_after(ua, "Firefox/"); fx > 0) {
      info.browser_major = fx;
      info.stale_fingerprint = fx < 50;
    } else if (const int sf = version_after(ua, "Version/"); sf > 0) {
      info.browser_major = sf;  // Safari style; current in its own line
    } else if (const int msie = version_after(ua, "MSIE "); msie > 0) {
      info.browser_major = msie;
      info.stale_fingerprint = true;
    }
    return info;
  }
  return info;
}

}  // namespace divscrape::httplog
