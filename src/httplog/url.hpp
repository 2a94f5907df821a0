// Request-target parsing: path/query splitting, query parameters, and the
// path taxonomy features the behavioural detector consumes (static asset vs
// dynamic page, path depth, template extraction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"
#include "util/interner.hpp"

namespace divscrape::httplog {

/// A parsed origin-form request target ("/path/to/x?a=1&b=2").
struct Url {
  std::string path;   ///< path component, never empty for valid targets ("/")
  std::string query;  ///< raw query string without '?', possibly empty

  [[nodiscard]] bool has_query() const noexcept { return !query.empty(); }
};

/// Splits a request target into path and query. Accepts any non-empty target
/// starting with '/'; nullopt otherwise (e.g. absolute-form proxy requests
/// or garbage).
[[nodiscard]] std::optional<Url> parse_url(std::string_view target);

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

// ## Which memo is for what
//
// Both classes below map a path to an exact template token (bijective with
// the template strings, unlike a raw hash, so counting tokens is
// collision-free). They differ in what they remember:
//
//   * PathTemplateMemo interns every distinct *path* and its template, so
//     a repeated path costs one probe. It suits a short-lived owner whose
//     path set is small and repetitive: one per Session, bounded by the
//     session timeout, uncapped.
//   * PathTemplateTokenizer interns only *templates* and rebuilds the
//     template of each new path into a reused buffer. It suits a
//     stream-lifetime owner (one per ArcaneDetector): path cardinality
//     grows with unique-id URLs and most paths are never seen twice, so a
//     path memo would hit almost never while dominating memory and the
//     checkpoint. Template cardinality is far smaller, and is capped.

/// Per-Session path -> template-token memo: template_token() interns the
/// path and computes+interns its template once per *distinct* path, so
/// repeat paths cost one probe. Paths and templates share one token space.
/// Uncapped; thread-compatible like the interner it wraps.
class PathTemplateMemo {
 public:
  /// The template token for `path` (also interns the path itself).
  /// Consecutive calls with the same path hit a one-entry memo: a memcmp
  /// instead of a hash.
  [[nodiscard]] std::uint32_t template_token(std::string_view path) {
    if (last_path_tok_ != util::StringInterner::kInvalidToken &&
        path == ids_.lookup(last_path_tok_)) {
      return template_of_path_[last_path_tok_ - 1];
    }
    const std::uint32_t path_tok = ids_.intern(path);
    if (template_of_path_.size() < ids_.size())
      template_of_path_.resize(ids_.size(),
                               util::StringInterner::kInvalidToken);
    std::uint32_t& slot = template_of_path_[path_tok - 1];
    if (slot == util::StringInterner::kInvalidToken) {
      ++distinct_paths_;
      slot = ids_.intern(path_template(path));
    }
    last_path_tok_ = path_tok;
    return slot;
  }

  /// Distinct paths ever passed to template_token().
  [[nodiscard]] std::size_t distinct_paths() const noexcept {
    return distinct_paths_;
  }

  void clear() {
    ids_.clear();
    template_of_path_.clear();
    distinct_paths_ = 0;
    last_path_tok_ = util::StringInterner::kInvalidToken;
  }

  /// Dump/restore of the memo (strings in token order + the path→template
  /// mapping).
  void save_state(util::StateWriter& w) const {
    ids_.save_state(w);
    w.u64(template_of_path_.size());
    for (const std::uint32_t tok : template_of_path_) w.u32(tok);
    w.u64(distinct_paths_);
  }
  [[nodiscard]] bool load_state(util::StateReader& r) {
    clear();
    if (!ids_.load_state(r)) return false;
    const std::uint64_t n = r.u64();
    if (!r.ok() || n > ids_.size()) {
      r.fail();
      clear();
      return false;
    }
    template_of_path_.resize(static_cast<std::size_t>(n));
    for (std::uint32_t& tok : template_of_path_) tok = r.u32();
    distinct_paths_ = static_cast<std::size_t>(r.u64());
    if (!r.ok()) clear();
    return r.ok();
  }

 private:
  util::StringInterner ids_;  ///< paths and their templates, one token space
  std::vector<std::uint32_t> template_of_path_;  ///< path token-1 -> template
  std::size_t distinct_paths_ = 0;
  /// One-entry template_token() memo (path token of the previous call).
  std::uint32_t last_path_tok_ = util::StringInterner::kInvalidToken;
};

/// Stream-lifetime path -> template-token tokenizer (see "Which memo is for
/// what" above). Each call rebuilds the template into a reused buffer and
/// looks it up among the interned templates; only template strings are
/// stored. Thread-compatible.
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
