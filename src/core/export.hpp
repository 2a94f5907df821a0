// Result export: serialize a JointResults to JSON (full fidelity, for
// dashboards and regression tracking) or CSV (per-table, for
// spreadsheets). The JSON document contains everything needed to
// re-render Tables 1-4, the confusion matrices, the adjudication curves
// and the pairwise diversity metrics without re-running the experiment.
#pragma once

#include <ostream>
#include <string>

#include "core/joiner.hpp"

namespace divscrape::core {

/// The full results document as a single JSON object
/// (schema divscrape.joint_results.v1).
[[nodiscard]] std::string to_json(const JointResults& results);

/// CSV of per-detector totals and confusion rates (one row per detector).
void export_totals_csv(const JointResults& results, std::ostream& os);

/// CSV of the pairwise contingency tables (one row per ordered pair).
void export_pairs_csv(const JointResults& results, std::ostream& os);

/// CSV of per-detector alerted-status counts (long form: detector,
/// status, alerted, unique).
void export_status_csv(const JointResults& results, std::ostream& os);

}  // namespace divscrape::core
