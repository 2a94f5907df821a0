// Request-target parsing: query parameters, and the path taxonomy features
// the detectors and the labeller consume (static asset vs dynamic page, path
// depth, template extraction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"
#include "util/interner.hpp"

namespace divscrape::httplog {

/// Decodes %XX escapes and '+' (as space). Invalid escapes pass through
/// verbatim, matching lenient server behaviour.
[[nodiscard]] std::string url_decode(std::string_view text);

/// One key=value query parameter (decoded).
struct QueryParam {
  std::string key;
  std::string value;
};

/// Splits a raw query string on '&' into decoded key/value pairs; a bare
/// token without '=' becomes {token, ""}.
[[nodiscard]] std::vector<QueryParam> parse_query(std::string_view query);

/// Returns the value of `key` in the query string, if present.
[[nodiscard]] std::optional<std::string> query_value(std::string_view query,
                                                     std::string_view key);

/// '/'-separated non-empty path segments of a path ("/a/b/" -> {"a","b"}).
[[nodiscard]] std::vector<std::string> path_segments(std::string_view path);

/// Lowercased extension of the final segment, without the dot; empty when
/// none ("/a/app.min.js" -> "js").
[[nodiscard]] std::string path_extension(std::string_view path);

/// True for typical embedded-resource extensions (css/js/images/fonts).
/// Humans using browsers fetch many of these per page; scrapers mostly
/// don't — a key behavioural signal.
[[nodiscard]] bool is_static_asset(std::string_view path) noexcept;

/// A normalized "template" of the path: numeric segments are replaced by
/// "{n}" so that /offer/123 and /offer/987 collapse to /offer/{n}. Scrapers
/// sweeping a catalogue produce very low template entropy. Empty segments
/// are dropped ("/a//b/" -> "/a/b").
[[nodiscard]] std::string path_template(std::string_view path);

/// The builder behind path_template(): writes the template of `path` into
/// `out`, replacing its contents. Reusing one `out` across calls makes the
/// steady state allocation-free (no segment vector, no temporaries).
void build_path_template(std::string_view path, std::string& out);

/// Path -> template-token tokenizer. A token is exact: bijective with the
/// template strings, unlike a raw hash, so counting tokens is
/// collision-free, and tokens rise in the order templates are first seen.
/// Each call rebuilds the template into a reused buffer and looks it up
/// among the interned templates; only template strings are stored, since
/// path cardinality grows with unique-id URLs and most paths are never seen
/// twice. ArcaneDetector keeps one for the stream (capped, checkpointed),
/// core::Session one per labeller session (uncapped). Thread-compatible.
///
/// Template cardinality is bounded in practice but not by construction, so
/// `max_templates` caps the interner: past the cap a template seen before
/// stays exact, and a new one gets a hash token with kOverflowTokenBit set
/// so it can never alias an exact token.
class PathTemplateTokenizer {
 public:
  /// Tokens >= this bit are hash-derived overflow tokens, not exact ids.
  static constexpr std::uint32_t kOverflowTokenBit = 0x8000'0000u;

  /// `max_templates`: interner growth cap; 0 = unlimited.
  explicit PathTemplateTokenizer(std::size_t max_templates = 0)
      : max_templates_(max_templates) {}

  /// The template token for `path`. Consecutive calls with the same path
  /// (polling and cache-sweep bots hammer one URL) hit a one-entry memo: a
  /// memcmp instead of a template build and a hash.
  [[nodiscard]] std::uint32_t token(std::string_view path) {
    if (last_token_ != util::StringInterner::kInvalidToken &&
        path == last_path_) {
      return last_token_;
    }
    build_path_template(path, template_);
    std::uint32_t tok;
    if (max_templates_ == 0 || templates_.size() < max_templates_) {
      tok = templates_.intern(template_);
    } else {
      tok = templates_.find(template_);
      if (tok == util::StringInterner::kInvalidToken)
        tok = util::fnv1a32(template_) | kOverflowTokenBit;
    }
    last_path_.assign(path);
    last_token_ = tok;
    return tok;
  }

  /// Distinct templates holding an exact token.
  [[nodiscard]] std::size_t templates() const noexcept {
    return templates_.size();
  }

  void clear() {
    templates_.clear();
    last_token_ = util::StringInterner::kInvalidToken;
  }

  /// Dump/restore of the interned templates in token order (the memo is
  /// recomputable and not saved). `max_templates` is construction-time
  /// config and is NOT serialized: restore into an identically-configured
  /// instance.
  void save_state(util::StateWriter& w) const { templates_.save_state(w); }
  [[nodiscard]] bool load_state(util::StateReader& r) {
    clear();
    return templates_.load_state(r);
  }

 private:
  util::StringInterner templates_;
  std::size_t max_templates_ = 0;
  std::string template_;   ///< reused build buffer
  std::string last_path_;  ///< one-entry memo key ...
  std::uint32_t last_token_ = util::StringInterner::kInvalidToken;  ///< ... value
};

}  // namespace divscrape::httplog
