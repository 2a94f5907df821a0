// HTTP vocabulary: methods, status codes and their taxonomy.
//
// The paper's Tables 3 and 4 break alerts down by HTTP status, so statuses
// are first-class here: reason phrases match the paper's table labels
// exactly ("200 (OK)", "302 (Found)", ...).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace divscrape::httplog {

/// HTTP request methods seen in access logs.
enum class HttpMethod : std::uint8_t {
  kGet,
  kPost,
  kHead,
  kPut,
  kDelete,
  kOptions,
  kPatch,
  kConnect,
  kTrace,
  kOther,  ///< anything unrecognized (malformed or exotic)
};

/// Canonical upper-case token ("GET", ...). kOther renders as "-".
[[nodiscard]] std::string_view to_string(HttpMethod m) noexcept;

/// Parses a method token; unknown tokens map to kOther (never fails, because
/// real access logs contain garbage methods from fuzzing bots).
[[nodiscard]] HttpMethod parse_method(std::string_view token) noexcept;

/// Reason phrase for the statuses that appear in web traffic; empty
/// string_view for unknown codes.
[[nodiscard]] std::string_view reason_phrase(int status) noexcept;

/// The paper's table label style: "200 (OK)", "500 (Internal Server Error)".
/// Unknown codes render as just the number.
[[nodiscard]] std::string status_label(int status);

}  // namespace divscrape::httplog
