// Dataset labelling — the paper's immediate next step ("The Amadeus team
// is currently working on labelling the dataset").
//
// Real access logs carry no ground truth; analysts label them
// retrospectively at *session* granularity using conservative heuristics
// plus manual review. HeuristicLabeler reproduces that workflow
// programmatically, in one pass over the unlabelled stream:
//
//   1. group records into sessions: one open session per (IP, User-Agent)
//      client, closed once the stream clock (the largest timestamp seen so
//      far) passes its last request plus the timeout. The client's next
//      request starts a new session. Because the clock never goes back,
//      when the closing sweep runs cannot change which records share a
//      session; on time-ordered input a gap longer than the timeout is the
//      boundary;
//   2. on close, score the session with high-precision rules on both ends
//      (certainly-automated vs certainly-human);
//   3. label every record of a confidently-judged session; leave the rest
//      kUnknown (the honest analyst position: partial labels).
//
// Against simulator traffic (where hidden truth exists) the labeller's
// output can itself be audited — agreement rate, kappa, and the coverage/
// purity trade-off as the confidence margin moves. That audit is exactly
// what an operator needs before trusting labels enough to compute the
// paper's sensitivity/specificity tables on production data.
#pragma once

#include <cstdint>
#include <vector>

#include "httplog/record.hpp"
#include "httplog/url.hpp"
#include "httplog/useragent.hpp"
#include "stats/counter.hpp"

namespace divscrape::core {

/// Aggregate view of one client session: the features judge() reads.
class Session {
 public:
  /// Folds one record into the aggregates. The session spans its earliest
  /// to its latest request, whatever order the lines arrive in; the first
  /// record fixes the UA classification (all records of a session share
  /// one UA — the client key guarantees it).
  void add(const httplog::LogRecord& record);

  [[nodiscard]] const httplog::UserAgentInfo& ua_info() const noexcept {
    return ua_info_;
  }
  [[nodiscard]] std::uint64_t request_count() const noexcept { return count_; }
  /// Latest request time (not the last line's: timestamps may step back).
  [[nodiscard]] httplog::Timestamp last_seen() const noexcept { return last_; }
  /// Seconds from the earliest to the latest request (0 for
  /// single-request sessions).
  [[nodiscard]] double duration_s() const noexcept;
  /// Mean requests per second over the session (count / duration); count
  /// when duration is 0.
  [[nodiscard]] double request_rate() const noexcept;
  /// Fraction of requests that fetched static assets (css/js/images).
  [[nodiscard]] double asset_ratio() const noexcept;
  /// Fraction of requests carrying a non-"-" Referer.
  [[nodiscard]] double referer_ratio() const noexcept;
  /// Fraction of 4xx responses.
  [[nodiscard]] double error_ratio() const noexcept;
  /// Shannon entropy (bits) over normalized path templates, summed in the
  /// order the session first saw each template; low entropy with high
  /// volume is the catalogue-sweep signature.
  [[nodiscard]] double template_entropy() const noexcept;

 private:
  httplog::UserAgentInfo ua_info_;
  std::uint64_t count_ = 0;
  httplog::Timestamp first_;
  httplog::Timestamp last_;
  std::uint64_t assets_ = 0;
  std::uint64_t with_referer_ = 0;
  std::uint64_t errors_4xx_ = 0;
  // Paths and their templates are interned session-locally: counting exact
  // 32-bit tokens is bijective with counting the strings themselves (same
  // entropy) but costs one probe instead of a string copy plus O(log n)
  // string compares per record.
  httplog::PathTemplateMemo paths_;
  stats::Counter<std::uint32_t> templates_;
};

/// Heuristic thresholds. Defaults are deliberately conservative: rules
/// only fire on behaviour that is unambiguous at session granularity.
struct LabelerConfig {
  double session_timeout_s = 1800.0;
  /// Sessions shorter than this stay kUnknown (not enough evidence).
  std::uint64_t min_session_requests = 5;

  // --- automation evidence (each adds +1 to the bot score) ---
  double bot_rate_rps = 1.0;          ///< sustained request rate
  double bot_max_asset_ratio = 0.02;  ///< claimed browser fetching no assets
  double bot_max_template_entropy = 0.8;
  double bot_max_referer_ratio = 0.05;
  double bot_min_error_ratio = 0.2;
  std::uint64_t bot_min_requests_for_starvation = 30;

  // --- human evidence (each adds +1 to the human score) ---
  double human_min_asset_ratio = 0.15;
  double human_min_referer_ratio = 0.5;
  double human_min_template_entropy = 1.2;
  double human_max_rate_rps = 0.25;

  /// Score margin required to emit a label (bot - human >= margin -> bot;
  /// human - bot >= margin -> benign). Larger = higher purity, lower
  /// coverage.
  int decision_margin = 2;
};

/// Outcome of labelling one stream.
struct LabelingResult {
  std::uint64_t records = 0;
  std::uint64_t labeled_malicious = 0;
  std::uint64_t labeled_benign = 0;
  std::uint64_t left_unknown = 0;

  [[nodiscard]] double coverage() const noexcept {
    return records == 0
               ? 0.0
               : static_cast<double>(labeled_malicious + labeled_benign) /
                     static_cast<double>(records);
  }
};

/// Agreement of heuristic labels with a reference truth (only over
/// records where the labeller decided).
struct LabelAudit {
  std::uint64_t decided = 0;
  std::uint64_t agree = 0;
  std::uint64_t false_malicious = 0;  ///< labelled malicious, truly benign
  std::uint64_t false_benign = 0;     ///< labelled benign, truly malicious

  [[nodiscard]] double agreement() const noexcept {
    return decided == 0
               ? 0.0
               : static_cast<double>(agree) / static_cast<double>(decided);
  }
};

class HeuristicLabeler {
 public:
  explicit HeuristicLabeler(LabelerConfig config = LabelerConfig{});

  /// Labels `records` in place (overwrites `truth` with the heuristic
  /// verdict, or kUnknown). Returns the tally.
  ///
  /// The declared-bot question: self-identified crawlers are labelled
  /// *benign* (matching the paper's framing, where "malicious" means
  /// scraping abuse, not automation per se).
  LabelingResult label(std::vector<httplog::LogRecord>& records) const;

  /// Session-level verdict (exposed for tests and tuning).
  [[nodiscard]] httplog::Truth judge(const Session& session) const;

  /// Compares heuristic labels against reference truths captured before
  /// labelling. Vectors must be index-aligned.
  [[nodiscard]] static LabelAudit audit(
      const std::vector<httplog::Truth>& reference,
      const std::vector<httplog::LogRecord>& labeled);

  [[nodiscard]] const LabelerConfig& config() const noexcept {
    return config_;
  }

 private:
  LabelerConfig config_;
};

}  // namespace divscrape::core
