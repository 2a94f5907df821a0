#include "httplog/clf.hpp"

#include <charconv>
#include <cstring>

#include "httplog/swar.hpp"

namespace divscrape::httplog {

namespace {

// ---------------------------------------------------------------------------
// Reference parser (the differential-testing oracle; see clf.hpp)
// ---------------------------------------------------------------------------

// Consumes characters up to the next space; advances `pos` past the space.
std::string_view take_token(std::string_view line, std::size_t& pos) {
  const auto start = pos;
  while (pos < line.size() && line[pos] != ' ') ++pos;
  const auto token = line.substr(start, pos - start);
  if (pos < line.size()) ++pos;  // skip the space
  return token;
}

// Consumes a [bracketed] field. Returns nullopt when malformed.
std::optional<std::string_view> take_bracketed(std::string_view line,
                                               std::size_t& pos) {
  if (pos >= line.size() || line[pos] != '[') return std::nullopt;
  const auto close = line.find(']', pos);
  if (close == std::string_view::npos) return std::nullopt;
  const auto inner = line.substr(pos + 1, close - pos - 1);
  pos = close + 1;
  if (pos < line.size() && line[pos] == ' ') ++pos;
  return inner;
}

// Consumes a "quoted" field honoring backslash escapes. The returned string
// has escapes resolved. Returns nullopt when the closing quote is missing.
std::optional<std::string> take_quoted(std::string_view line,
                                       std::size_t& pos) {
  if (pos >= line.size() || line[pos] != '"') return std::nullopt;
  ++pos;
  std::string out;
  while (pos < line.size()) {
    const char c = line[pos];
    if (c == '\\' && pos + 1 < line.size()) {
      out += line[pos + 1];
      pos += 2;
      continue;
    }
    if (c == '"') {
      ++pos;
      if (pos < line.size() && line[pos] == ' ') ++pos;
      return out;
    }
    out += c;
    ++pos;
  }
  return std::nullopt;
}

void escape_quoted_append(std::string_view text, std::string& out) {
  // Escapes are rare: scan once, and bulk-append when there is nothing to
  // escape (the overwhelmingly common case for targets/referers/UAs).
  if (std::memchr(text.data(), '"', text.size()) == nullptr &&
      std::memchr(text.data(), '\\', text.size()) == nullptr) {
    out.append(text);
    return;
  }
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

// Splits a resolved request line "METHOD SP TARGET SP PROTOCOL" into the
// record's method/target/protocol, with the historical leniency: one lone
// token is a bare target (e.g. "-" from an aborted TLS handshake), interior
// spaces belong to the target.
void split_request_line(std::string_view r, LogRecord& rec) {
  const auto sp1 = r.find(' ');
  if (sp1 == std::string_view::npos) {
    rec.method = HttpMethod::kOther;
    rec.target.assign(r);
    rec.protocol.clear();
  } else {
    rec.method = parse_method(r.substr(0, sp1));
    const auto sp2 = r.rfind(' ');
    if (sp2 == sp1) {
      rec.target.assign(r.substr(sp1 + 1));
      rec.protocol.clear();
    } else {
      rec.target.assign(r.substr(sp1 + 1, sp2 - sp1 - 1));
      rec.protocol.assign(r.substr(sp2 + 1));
    }
  }
}

std::string_view strip_line_endings(std::string_view line) noexcept {
  // Strip trailing CR/LF so Windows-edited logs parse.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  return line;
}

}  // namespace

std::string_view to_string(ClfError e) noexcept {
  switch (e) {
    case ClfError::kNone: return "none";
    case ClfError::kEmptyLine: return "empty line";
    case ClfError::kBadIp: return "bad ip";
    case ClfError::kBadTimestamp: return "bad timestamp";
    case ClfError::kBadRequestLine: return "bad request line";
    case ClfError::kBadStatus: return "bad status";
    case ClfError::kBadBytes: return "bad bytes";
    case ClfError::kTruncated: return "truncated";
  }
  return "?";
}

ClfParseResult parse_clf_reference(std::string_view line) {
  line = strip_line_endings(line);
  if (line.empty()) return {std::nullopt, ClfError::kEmptyLine};

  LogRecord rec;
  std::size_t pos = 0;

  const auto ip_token = take_token(line, pos);
  const auto ip = parse_ipv4(ip_token);
  if (!ip) return {std::nullopt, ClfError::kBadIp};
  rec.ip = *ip;

  rec.ident = std::string(take_token(line, pos));
  rec.user = std::string(take_token(line, pos));
  if (rec.ident.empty() || rec.user.empty())
    return {std::nullopt, ClfError::kTruncated};

  const auto time_field = take_bracketed(line, pos);
  if (!time_field) return {std::nullopt, ClfError::kBadTimestamp};
  const auto time = parse_clf_time(*time_field);
  if (!time) return {std::nullopt, ClfError::kBadTimestamp};
  rec.time = *time;

  auto request = take_quoted(line, pos);
  if (!request) return {std::nullopt, ClfError::kBadRequestLine};
  // Request line: METHOD SP TARGET SP PROTOCOL. Bots send garbage here;
  // we keep what we can (a lone "-" is allowed, e.g. aborted TLS).
  split_request_line(*request, rec);

  const auto status_token = take_token(line, pos);
  {
    int status = 0;
    const auto* begin = status_token.data();
    const auto* end = begin + status_token.size();
    const auto [next, ec] = std::from_chars(begin, end, status);
    if (ec != std::errc{} || next != end || status < 100 || status > 599)
      return {std::nullopt, ClfError::kBadStatus};
    rec.status = status;
  }

  const auto bytes_token = take_token(line, pos);
  if (bytes_token == "-") {
    rec.bytes = 0;
    rec.bytes_dash = true;
  } else {
    std::uint64_t bytes = 0;
    const auto* begin = bytes_token.data();
    const auto* end = begin + bytes_token.size();
    const auto [next, ec] = std::from_chars(begin, end, bytes);
    if (ec != std::errc{} || next != end)
      return {std::nullopt, ClfError::kBadBytes};
    rec.bytes = bytes;
    rec.bytes_dash = false;
  }

  auto referer = take_quoted(line, pos);
  if (!referer) return {std::nullopt, ClfError::kTruncated};
  rec.referer = std::move(*referer);

  auto ua = take_quoted(line, pos);
  if (!ua) return {std::nullopt, ClfError::kTruncated};
  rec.user_agent = std::move(*ua);

  return {std::move(rec), ClfError::kNone};
}

// ---------------------------------------------------------------------------
// Fast parser
// ---------------------------------------------------------------------------

namespace {

// Resolves a quoted field's escapes into `dst` with take_quoted's exact
// semantics (backslash consumes the next byte, whatever it is). `p` points
// just past the opening quote. Returns the position one past the closing
// quote, or nullptr when the quote never closes.
const char* resolve_escaped(const char* p, const char* end, std::string& dst) {
  dst.clear();
  while (p < end) {
    const char c = *p;
    if (c == '\\' && p + 1 < end) {
      dst += p[1];
      p += 2;
      continue;
    }
    if (c == '"') return p + 1;
    dst += c;
    ++p;
  }
  return nullptr;
}

}  // namespace

ClfError ClfParser::parse(std::string_view line_in, LogRecord& out) {
  const std::string_view line = strip_line_endings(line_in);
  if (line.empty()) return ClfError::kEmptyLine;

  const char* p = line.data();
  const char* const end = p + line.size();

  // %h — the IP token. Short fields (ip/ident/user/status/bytes) scan with
  // the inlined SWAR word trick; long scans (bracket, quotes) use memchr.
  const char* sp = swar::find_byte(p, end, ' ');
  const auto ip = parse_ipv4(std::string_view(p, static_cast<std::size_t>(sp - p)));
  if (!ip) return ClfError::kBadIp;
  out.ip = *ip;
  p = sp < end ? sp + 1 : sp;

  // %l %u — kept verbatim (the literal "-" is the canonical absent value).
  const char* f0 = p;
  sp = swar::find_byte(p, end, ' ');
  const std::string_view ident(f0, static_cast<std::size_t>(sp - f0));
  p = sp < end ? sp + 1 : sp;
  f0 = p;
  sp = swar::find_byte(p, end, ' ');
  const std::string_view user(f0, static_cast<std::size_t>(sp - f0));
  p = sp < end ? sp + 1 : sp;
  if (ident.empty() || user.empty()) return ClfError::kTruncated;
  out.ident.assign(ident);
  out.user.assign(user);

  // [%t] — with the per-second memo. parse_clf_time reads only the first
  // 26 bytes of the field (and requires at least that many), so matching
  // those bytes against the last decoded field is exact, not heuristic.
  if (p >= end || *p != '[') return ClfError::kBadTimestamp;
  const char* close = static_cast<const char*>(
      std::memchr(p, ']', static_cast<std::size_t>(end - p)));
  if (close == nullptr) return ClfError::kBadTimestamp;
  const std::string_view time_field(p + 1,
                                    static_cast<std::size_t>(close - p - 1));
  if (memo_valid_ && time_field.size() >= sizeof time_memo_ &&
      std::memcmp(time_field.data(), time_memo_, sizeof time_memo_) == 0) {
    out.time = memo_time_;
  } else {
    const auto time = parse_clf_time(time_field);
    if (!time) return ClfError::kBadTimestamp;
    out.time = *time;
    std::memcpy(time_memo_, time_field.data(), sizeof time_memo_);
    memo_time_ = *time;
    memo_valid_ = true;
  }
  p = close + 1;
  if (p < end && *p == ' ') ++p;

  // Quoted-field splitter. Escapes are rare, so the fast lane is a memchr
  // for the closing quote plus a memchr proving no backslash precedes it;
  // any backslash falls back to the byte-at-a-time resolver. On success
  // `p` is one past the closing quote (the caller skips the field space),
  // and the field is either `view` (escape-free, zero-copy) or `scratch_`
  // (resolved). Returns false when the quote never closes.
  std::string_view view;
  bool resolved;
  const auto take_quoted_fast = [&]() -> bool {
    if (p >= end || *p != '"') return false;
    const char* q = p + 1;
    const char* quote = static_cast<const char*>(
        std::memchr(q, '"', static_cast<std::size_t>(end - q)));
    if (quote == nullptr &&
        std::memchr(q, '\\', static_cast<std::size_t>(end - q)) == nullptr)
      return false;  // unclosed, no escapes that could hide a quote
    if (quote != nullptr &&
        std::memchr(q, '\\', static_cast<std::size_t>(quote - q)) == nullptr) {
      view = std::string_view(q, static_cast<std::size_t>(quote - q));
      resolved = false;
      p = quote + 1;
    } else {
      const char* after = resolve_escaped(q, end, scratch_);
      if (after == nullptr) return false;
      resolved = true;
      p = after;
    }
    if (p < end && *p == ' ') ++p;
    return true;
  };

  // "%r" — split on the *resolved* text (a backslash-space escape resolves
  // to a space and participates in the split, as the reference does).
  if (!take_quoted_fast()) return ClfError::kBadRequestLine;
  split_request_line(resolved ? std::string_view(scratch_) : view, out);

  // %>s
  f0 = p;
  sp = swar::find_byte(p, end, ' ');
  p = sp < end ? sp + 1 : sp;
  {
    int status = 0;
    const auto [next, ec] = std::from_chars(f0, sp, status);
    if (ec != std::errc{} || next != sp || status < 100 || status > 599)
      return ClfError::kBadStatus;
    out.status = status;
  }

  // %b
  f0 = p;
  sp = swar::find_byte(p, end, ' ');
  p = sp < end ? sp + 1 : sp;
  if (sp - f0 == 1 && *f0 == '-') {
    out.bytes = 0;
    out.bytes_dash = true;
  } else {
    std::uint64_t bytes = 0;
    const auto [next, ec] = std::from_chars(f0, sp, bytes);
    if (ec != std::errc{} || next != sp) return ClfError::kBadBytes;
    out.bytes = bytes;
    out.bytes_dash = false;
  }

  // "%{Referer}i" "%{User-agent}i" — trailing junk after the closing UA
  // quote is ignored, as the reference does.
  if (!take_quoted_fast()) return ClfError::kTruncated;
  if (resolved) out.referer.assign(scratch_);
  else out.referer.assign(view);
  if (!take_quoted_fast()) return ClfError::kTruncated;
  if (resolved) out.user_agent.assign(scratch_);
  else out.user_agent.assign(view);

  // Sidecar metadata never crosses the wire: reset to the LogRecord
  // defaults so a reused `out` matches a freshly parsed record exactly.
  out.ua_token = 0;
  out.truth = Truth::kUnknown;
  out.actor_id = 0;
  out.actor_class = 255;
  out.vhost = 0;
  return ClfError::kNone;
}

// ---------------------------------------------------------------------------
// Formatter
// ---------------------------------------------------------------------------

namespace {

void append_u64(std::uint64_t value, std::string& out) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;  // 20 digits always suffice for u64
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_int(int value, std::string& out) {
  char buf[12];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_ip(Ipv4 ip, std::string& out) {
  char buf[15];
  char* w = buf;
  const std::uint32_t v = ip.value();
  for (int shift = 24; shift >= 0; shift -= 8) {
    const unsigned octet = (v >> shift) & 0xff;
    if (octet >= 100) *w++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *w++ = static_cast<char>('0' + (octet / 10) % 10);
    *w++ = static_cast<char>('0' + octet % 10);
    if (shift != 0) *w++ = '.';
  }
  out.append(buf, static_cast<std::size_t>(w - buf));
}

std::int64_t floor_seconds(std::int64_t micros) noexcept {
  // Floor division: negative micros belong to the earlier wire second,
  // matching what to_clf() renders.
  const std::int64_t q = micros / kMicrosPerSecond;
  return (micros % kMicrosPerSecond < 0) ? q - 1 : q;
}

}  // namespace

void ClfFormatter::append(const LogRecord& record, std::string& out) {
  append_ip(record.ip, out);
  out += ' ';
  if (record.ident.empty()) out += '-';
  else out += record.ident;
  out += ' ';
  if (record.user.empty()) out += '-';
  else out += record.user;
  out += " [";
  const std::int64_t second = floor_seconds(record.time.micros());
  if (second == memo_second_) {
    out.append(time_chars_, Timestamp::kClfChars);
  } else if (Timestamp{second * kMicrosPerSecond}.to_clf_chars(time_chars_)) {
    memo_second_ = second;
    out.append(time_chars_, Timestamp::kClfChars);
  } else {
    out += record.time.to_clf();  // year outside 0..9999
  }
  out += "] \"";
  out += to_string(record.method);
  out += ' ';
  escape_quoted_append(record.target, out);
  if (!record.protocol.empty()) {
    out += ' ';
    out += record.protocol;
  }
  out += "\" ";
  append_int(record.status, out);
  out += ' ';
  if (record.bytes == 0 && record.bytes_dash) out += '-';
  else append_u64(record.bytes, out);
  out += " \"";
  escape_quoted_append(record.referer, out);
  out += "\" \"";
  escape_quoted_append(record.user_agent, out);
  out += '"';
}

std::string format_clf(const LogRecord& record) {
  ClfFormatter formatter;
  std::string out;
  out.reserve(160);
  formatter.append(record, out);
  return out;
}

std::string_view to_string(Truth t) noexcept {
  switch (t) {
    case Truth::kUnknown: return "unknown";
    case Truth::kBenign: return "benign";
    case Truth::kMalicious: return "malicious";
  }
  return "?";
}

}  // namespace divscrape::httplog
