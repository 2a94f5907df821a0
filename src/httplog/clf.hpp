// Apache "combined" log format codec.
//
//   %h %l %u [%t] "%r" %>s %b "%{Referer}i" "%{User-agent}i"
//
// e.g.
//   203.0.113.7 - - [11/Mar/2018:06:25:24 +0000] "GET /search?q=NCE HTTP/1.1"
//       200 5120 "https://example.com/" "Mozilla/5.0 (...)"
//
// Parsing is lenient in the ways real logs require (escaped quotes inside
// quoted fields, "-" for missing sizes, garbage request lines) but reports a
// precise error category for every rejected line.
//
// ## Round-trip contract
//
//   * format_clf(parse(line)) == line for every accepted line (byte
//     stability): parse keeps the wire's tokens verbatim — the literal "-"
//     in ident/user, the %b dash-vs-"0" distinction (LogRecord::bytes_dash)
//     — and format writes them back unchanged. The two deliberate
//     exceptions: a non-UTC timezone re-renders as its UTC equivalent
//     (Timestamp stores UTC), and bytes after the closing user-agent quote
//     are dropped (parse ignores trailing junk).
//   * parse(format_clf(rec)) equals rec on every wire field for records
//     whose fields are representable. The canonical "absent" ident/user is
//     "-" (the LogRecord default); an empty string cannot be written to the
//     wire, so format_clf normalizes record -> wire: "" is emitted as "-"
//     and comes back as "-". Spaces or control bytes inside ident/user are
//     likewise unrepresentable (the caller's responsibility; format does
//     not escape them).
//
// ## Two parser implementations
//
// ClfParser is the production fast path: memchr/SWAR field splitting over
// the caller's buffer, an escape-free fast lane for quoted fields, and no
// per-field heap traffic until the line is accepted. parse_clf_reference()
// is the original field-by-field implementation, kept as the oracle the
// differential fuzz suite (httplog_clf_fuzz_test) checks the fast path
// against — byte-for-byte equal verdicts and records on every input. Fix
// bugs in the reference first; make the fast path match.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "httplog/record.hpp"

namespace divscrape::httplog {

/// Why a line failed to parse.
enum class ClfError : std::uint8_t {
  kNone,
  kEmptyLine,
  kBadIp,
  kBadTimestamp,
  kBadRequestLine,
  kBadStatus,
  kBadBytes,
  kTruncated,
};

[[nodiscard]] std::string_view to_string(ClfError e) noexcept;

/// Result of parsing one line: either a record, or the error that rejected
/// the line.
struct ClfParseResult {
  std::optional<LogRecord> record;
  ClfError error = ClfError::kNone;

  [[nodiscard]] bool ok() const noexcept { return record.has_value(); }
};

/// Streaming CLF decoder — the one production parser, which the ingest hot
/// path (pipeline::LineDecoder) holds per stream. Two things make it fast
/// on a real log:
///
///   * a per-second timestamp memo: CLF time has one-second resolution, so
///     consecutive records overwhelmingly repeat the previous record's
///     26-byte "[%t]" field. The memo compares those bytes (parse_clf_time
///     reads nothing past them) and reuses the decoded Timestamp on a hit —
///     the full civil-date decode runs about once per wire second.
///   * parse(line, out) writes into a caller-owned record, so a caller that
///     reuses one record across lines (LineDecoder's batch slots) recycles the
///     field strings' capacity instead of allocating five strings per line.
///
/// One parser = one log stream; the memo is just a cache, so sharing one
/// parser across interleaved streams is correct but wastes the hit rate.
class ClfParser {
 public:
  /// Parses one line into `out`, reusing its string capacity. Returns
  /// kNone on success; on failure `out` is left in an unspecified (but
  /// valid) state. All sidecar fields of `out` are reset to their defaults
  /// on success — a reused `out` is indistinguishable from a fresh one.
  ClfError parse(std::string_view line, LogRecord& out);

 private:
  // Per-second timestamp memo: first 26 bytes of the last successfully
  // decoded time field + its value (parse_clf_time ignores later bytes).
  char time_memo_[26];
  Timestamp memo_time_;
  bool memo_valid_ = false;
  std::string scratch_;  ///< escape-resolution buffer for "%r" (rare path)
};

/// Streaming CLF encoder with the mirror-image per-second memo: the 26-byte
/// time field is re-rendered only when the record's wire second changes,
/// and everything else is appended straight into the caller's buffer — no
/// snprintf, no temporary strings. One formatter = one output stream.
class ClfFormatter {
 public:
  /// Appends one formatted line (no trailing newline) to `out`.
  void append(const LogRecord& record, std::string& out);

 private:
  std::int64_t memo_second_ = std::numeric_limits<std::int64_t>::min();
  char time_chars_[Timestamp::kClfChars];
};

/// The original straight-line parser, retained as the differential-testing
/// oracle for ClfParser (see the header comment). Not for production use:
/// it allocates per field and decodes every timestamp from scratch.
[[nodiscard]] ClfParseResult parse_clf_reference(std::string_view line);

/// Formats a record as one combined-log-format line (no trailing newline).
/// Quotes and backslashes inside quoted fields are backslash-escaped; see
/// the header comment for the round-trip contract (ident/user "-"
/// normalization, the bytes_dash %b sentinel).
[[nodiscard]] std::string format_clf(const LogRecord& record);

}  // namespace divscrape::httplog
