#include "core/contingency.hpp"

namespace divscrape::core {

void ContingencyTable::observe(bool first_alert, bool second_alert) noexcept {
  if (first_alert && second_alert)
    ++counts_.both;
  else if (first_alert)
    ++counts_.only_first;
  else if (second_alert)
    ++counts_.only_second;
  else
    ++counts_.neither;
}

void ContingencyTable::merge(const ContingencyTable& other) noexcept {
  counts_.both += other.counts_.both;
  counts_.only_first += other.counts_.only_first;
  counts_.only_second += other.counts_.only_second;
  counts_.neither += other.counts_.neither;
}

DiversityMetrics DiversityMetrics::from(
    const stats::PairedCounts& counts) noexcept {
  DiversityMetrics m;
  m.q_statistic = stats::q_statistic(counts);
  m.phi = stats::phi_coefficient(counts);
  m.disagreement = stats::disagreement(counts);
  m.kappa = stats::cohens_kappa(counts);
  m.mcnemar = stats::mcnemar_test(counts);
  return m;
}

}  // namespace divscrape::core
