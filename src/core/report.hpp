// Plain-text table rendering for the CLI, benches and examples: aligned
// columns, thousands separators, and paper-vs-measured comparison rows.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace divscrape::core {

/// Formats 1469744 as "1,469,744".
[[nodiscard]] std::string with_thousands(std::uint64_t value);

/// Formats a ratio as a percentage with one decimal ("86.8%").
[[nodiscard]] std::string as_percent(double fraction);

/// Simple aligned-column text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Renders with a header rule and column padding.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Relative deviation |measured - paper| / paper, as a display string; "-"
/// when the paper value is 0.
[[nodiscard]] std::string deviation(std::uint64_t measured,
                                    std::uint64_t paper);

/// Shape verdict between a measured and a paper count: "ok" within the
/// factor band [1/tolerance, tolerance], "off" otherwise.
[[nodiscard]] std::string shape_verdict(std::uint64_t measured,
                                        std::uint64_t paper,
                                        double tolerance = 2.0);

}  // namespace divscrape::core
