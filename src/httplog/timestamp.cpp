#include "httplog/timestamp.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace divscrape::httplog {

namespace {

constexpr std::array<std::string_view, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

// Howard Hinnant's days-from-civil: days since 1970-01-01 for a proleptic
// Gregorian date.
constexpr std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return static_cast<std::int64_t>(era) * 146097 +
         static_cast<std::int64_t>(doe) - 719468;
}

// Inverse: civil date from days since epoch.
constexpr void civil_from_days(std::int64_t z, int& y, int& m,
                               int& d) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  y = static_cast<int>(yy + (m <= 2));
}

bool parse_fixed_int(std::string_view text, std::size_t pos, std::size_t len,
                     int& out) noexcept {
  if (pos + len > text.size()) return false;
  const char* begin = text.data() + pos;
  const auto [next, ec] = std::from_chars(begin, begin + len, out);
  return ec == std::errc{} && next == begin + len;
}

constexpr bool is_leap_year(int y) noexcept {
  return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
}

constexpr int days_in_month(int year, int month) noexcept {
  constexpr int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[month - 1];
}

void write_digits(char* out, int value, int width) noexcept {
  for (int i = width - 1; i >= 0; --i) {
    out[i] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
}

}  // namespace

Timestamp Timestamp::from_civil(int year, int month, int day, int hour,
                                int minute, int second,
                                int microsecond) noexcept {
  const std::int64_t days = days_from_civil(year, month, day);
  return Timestamp{days * kMicrosPerDay + hour * kMicrosPerHour +
                   minute * kMicrosPerMinute + second * kMicrosPerSecond +
                   microsecond};
}

std::string Timestamp::to_clf() const {
  char buf[kClfChars];
  if (to_clf_chars(buf)) return std::string(buf, kClfChars);
  // Year outside 0..9999: fall back to the variable-width formatter. The
  // month names are string literals, so .data() is NUL-terminated.
  std::int64_t days = micros_ / kMicrosPerDay;
  std::int64_t rem = micros_ % kMicrosPerDay;
  if (rem < 0) {
    rem += kMicrosPerDay;
    --days;
  }
  int y = 0, m = 0, d = 0;
  civil_from_days(days, y, m, d);
  char wide[48];
  std::snprintf(wide, sizeof wide, "%02d/%s/%04d:%02d:%02d:%02d +0000", d,
                kMonths[static_cast<std::size_t>(m - 1)].data(), y,
                static_cast<int>(rem / kMicrosPerHour),
                static_cast<int>((rem / kMicrosPerMinute) % 60),
                static_cast<int>((rem / kMicrosPerSecond) % 60));
  return wide;
}

bool Timestamp::to_clf_chars(char* out) const noexcept {
  std::int64_t days = micros_ / kMicrosPerDay;
  std::int64_t rem = micros_ % kMicrosPerDay;
  if (rem < 0) {
    rem += kMicrosPerDay;
    --days;
  }
  int y = 0, m = 0, d = 0;
  civil_from_days(days, y, m, d);
  if (y < 0 || y > 9999) return false;
  write_digits(out, d, 2);
  out[2] = '/';
  const std::string_view mon = kMonths[static_cast<std::size_t>(m - 1)];
  out[3] = mon[0];
  out[4] = mon[1];
  out[5] = mon[2];
  out[6] = '/';
  write_digits(out + 7, y, 4);
  out[11] = ':';
  write_digits(out + 12, static_cast<int>(rem / kMicrosPerHour), 2);
  out[14] = ':';
  write_digits(out + 15, static_cast<int>((rem / kMicrosPerMinute) % 60), 2);
  out[17] = ':';
  write_digits(out + 18, static_cast<int>((rem / kMicrosPerSecond) % 60), 2);
  out[20] = ' ';
  out[21] = '+';
  out[22] = '0';
  out[23] = '0';
  out[24] = '0';
  out[25] = '0';
  return true;
}

std::string Timestamp::to_iso8601() const {
  std::int64_t days = micros_ / kMicrosPerDay;
  std::int64_t rem = micros_ % kMicrosPerDay;
  if (rem < 0) {
    rem += kMicrosPerDay;
    --days;
  }
  int y = 0, m = 0, d = 0;
  civil_from_days(days, y, m, d);
  const int hour = static_cast<int>(rem / kMicrosPerHour);
  const int minute = static_cast<int>((rem / kMicrosPerMinute) % 60);
  const int second = static_cast<int>((rem / kMicrosPerSecond) % 60);
  char buf[32];
  if (y < 0 || y > 9999) {
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ", y, m, d,
                  hour, minute, second);
    return buf;
  }
  // The fixed-width common case without snprintf: the alert log formats
  // one of these per alert event.
  std::memcpy(buf, "0000-00-00T00:00:00Z", 20);
  write_digits(buf, y, 4);
  write_digits(buf + 5, m, 2);
  write_digits(buf + 8, d, 2);
  write_digits(buf + 11, hour, 2);
  write_digits(buf + 14, minute, 2);
  write_digits(buf + 17, second, 2);
  return std::string(buf, 20);
}

std::optional<Timestamp> parse_clf_time(std::string_view text) noexcept {
  // Layout: dd/Mon/yyyy:HH:MM:SS +ZZZZ  (26 chars)
  if (text.size() < 26) return std::nullopt;
  int day = 0, year = 0, hour = 0, minute = 0, second = 0;
  if (!parse_fixed_int(text, 0, 2, day) || text[2] != '/') return std::nullopt;
  int month = 0;
  const std::string_view mon = text.substr(3, 3);
  for (std::size_t i = 0; i < kMonths.size(); ++i) {
    if (kMonths[i] == mon) {
      month = static_cast<int>(i) + 1;
      break;
    }
  }
  if (month == 0 || text[6] != '/') return std::nullopt;
  if (!parse_fixed_int(text, 7, 4, year) || text[11] != ':')
    return std::nullopt;
  if (!parse_fixed_int(text, 12, 2, hour) || text[14] != ':')
    return std::nullopt;
  if (!parse_fixed_int(text, 15, 2, minute) || text[17] != ':')
    return std::nullopt;
  if (!parse_fixed_int(text, 18, 2, second) || text[20] != ' ')
    return std::nullopt;
  const char sign = text[21];
  if (sign != '+' && sign != '-') return std::nullopt;
  int tz_hour = 0, tz_min = 0;
  if (!parse_fixed_int(text, 22, 2, tz_hour) ||
      !parse_fixed_int(text, 24, 2, tz_min))
    return std::nullopt;
  // Real calendar validation: Feb 31 must not silently normalize through
  // days_from_civil into a March date. :60 seconds stay tolerated (leap
  // seconds appear in real logs). Timezone offsets are bounded to the
  // ±14:00 range that exists on Earth (UTC+14 is the maximum, Kiribati);
  // "+9959" is a corrupt field, not a timezone.
  if (year < 0 || hour < 0 || minute < 0 || second < 0 || tz_hour < 0 ||
      tz_min < 0)
    return std::nullopt;  // from_chars accepts "-1" inside a fixed width
  if (day < 1 || day > days_in_month(year, month) || hour > 23 ||
      minute > 59 || second > 60)
    return std::nullopt;
  if (tz_min > 59 || tz_hour * 60 + tz_min > 14 * 60) return std::nullopt;

  Timestamp local =
      Timestamp::from_civil(year, month, day, hour, minute, second);
  const std::int64_t offset =
      (tz_hour * kMicrosPerHour + tz_min * kMicrosPerMinute) *
      (sign == '+' ? 1 : -1);
  return Timestamp{local.micros() - offset};
}

}  // namespace divscrape::httplog
