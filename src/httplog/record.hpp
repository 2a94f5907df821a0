// The central value type: one Apache access-log record.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "httplog/http.hpp"
#include "httplog/ip.hpp"
#include "httplog/timestamp.hpp"

namespace divscrape::httplog {

/// Ground-truth label attached to a record by the traffic simulator.
///
/// Real access logs are unlabelled (the paper's dataset was; labelling is
/// its future work). Simulated records carry truth as *sidecar metadata*:
/// the CLF wire format neither writes nor reads it, and detectors never
/// look at it — only the evaluation layer does.
enum class Truth : std::uint8_t {
  kUnknown,    ///< no ground truth available (e.g. parsed from a real file)
  kBenign,     ///< human visitor or legitimate bot
  kMalicious,  ///< scraping/abusive automation
};

[[nodiscard]] std::string_view to_string(Truth t) noexcept;

/// One HTTP request as recorded in Apache "combined" log format, plus
/// simulation-only sidecar fields (truth, actor_id).
struct LogRecord {
  Ipv4 ip;                          ///< client address (%h)
  std::string ident = "-";          ///< identd (%l), almost always "-"
  std::string user = "-";           ///< authenticated user (%u)
  Timestamp time;                   ///< request time (%t)
  HttpMethod method = HttpMethod::kGet;
  std::string target = "/";         ///< request target: path[?query]
  std::string protocol = "HTTP/1.1";
  int status = 200;                 ///< response status (%>s)
  std::uint64_t bytes = 0;          ///< response body size (%b)
  /// %b dash sentinel. Apache logs "-" for a no-body response and "0" for a
  /// zero-length body; both parse to bytes == 0, so this flag carries the
  /// wire distinction: format_clf writes "-" only when bytes == 0 AND
  /// bytes_dash is set. parse_clf sets it to match the wire exactly
  /// (literal "0" clears it), making parse -> format byte-stable. Defaults
  /// true so a default 0 keeps logging "-" (the Apache convention and this
  /// repo's historical output); set bytes = 0, bytes_dash = false for a
  /// literal zero.
  bool bytes_dash = true;
  std::string referer = "-";        ///< Referer header, "-" when absent
  std::string user_agent = "-";     ///< User-Agent header, "-" when absent

  // --- sidecar metadata (not part of the CLF wire format) ---
  /// Interned token for `user_agent`, stamped by the detection consumer
  /// (ReplayEngine, or DetectionStage ahead of its shards). 0 = not
  /// stamped; detectors fall back to interning the string themselves.
  /// Tokens are only meaningful relative to the single interner that
  /// minted them, so they never cross process or file boundaries (the CLF
  /// codec neither writes nor reads this field).
  std::uint32_t ua_token = 0;
  Truth truth = Truth::kUnknown;    ///< simulator ground truth
  std::uint32_t actor_id = 0;       ///< simulator actor identity (0 = none)
  /// Simulator actor class (traffic::ActorClass value); 255 = none. Opaque
  /// to this layer; used by calibration/ablation reports only.
  std::uint8_t actor_class = 255;
  /// Simulator vhost index (position in the ScenarioSpec's vhost list) —
  /// how `simulate --out-multi` routes the merged stream into one CLF log
  /// per vhost. 0 for single-vhost scenarios and parsed records.
  std::uint32_t vhost = 0;

  /// Path portion of `target` (up to '?').
  [[nodiscard]] std::string_view path() const noexcept {
    const std::string_view t = target;
    const auto q = t.find('?');
    return q == std::string_view::npos ? t : t.substr(0, q);
  }

  /// Query portion of `target` (after '?', possibly empty).
  [[nodiscard]] std::string_view query() const noexcept {
    const std::string_view t = target;
    const auto q = t.find('?');
    return q == std::string_view::npos ? std::string_view{} : t.substr(q + 1);
  }
};

}  // namespace divscrape::httplog
