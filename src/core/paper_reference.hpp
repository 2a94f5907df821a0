// The published numbers from the paper's Tables 1-4, used by
// `divscrape_cli tables` and the quickstart example to print
// paper-vs-measured rows.
//
// Source: Marques et al., "Using Diverse Detectors for Detecting Malicious
// Web Scraping Activity", DSN 2018 — Amadeus production traffic, March
// 11-18 2018. In this repository "Distil" maps to SentinelDetector and
// "Arcane" to ArcaneDetector.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace divscrape::core::paper {

// ---- Table 1: HTTP requests alerted by the two tools ----
inline constexpr std::uint64_t kTotalRequests = 1'469'744;
inline constexpr std::uint64_t kDistilAlerts = 1'275'056;
inline constexpr std::uint64_t kArcaneAlerts = 1'240'713;

// ---- Table 2: diversity in the alerting behaviour ----
inline constexpr std::uint64_t kBoth = 1'231'408;
inline constexpr std::uint64_t kNeither = 185'383;
inline constexpr std::uint64_t kArcaneOnly = 9'305;
inline constexpr std::uint64_t kDistilOnly = 43'648;

/// (status, count) rows in the order the paper prints them.
using StatusRows = std::vector<std::pair<int, std::uint64_t>>;

// ---- Table 3: alerted requests by HTTP status, overall ----
[[nodiscard]] inline StatusRows table3_arcane() {
  return {{200, 1'204'241}, {302, 34'561}, {204, 1'560}, {400, 256},
          {304, 76},        {500, 11},     {404, 8}};
}
[[nodiscard]] inline StatusRows table3_distil() {
  return {{200, 1'239'079}, {302, 34'832}, {204, 1'018}, {400, 73},
          {404, 32},        {304, 15},     {500, 6},     {403, 1}};
}

// ---- Table 4: status of requests alerted by only one tool ----
[[nodiscard]] inline StatusRows table4_arcane_only() {
  return {{200, 7'693}, {204, 956}, {302, 321}, {400, 247},
          {304, 76},    {404, 7},   {500, 5}};
}
[[nodiscard]] inline StatusRows table4_distil_only() {
  return {{200, 42'531}, {302, 592}, {204, 414}, {400, 64},
          {404, 31},     {304, 15},  {403, 1}};
}

}  // namespace divscrape::core::paper
