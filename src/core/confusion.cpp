#include "core/confusion.hpp"

namespace divscrape::core {

namespace {
double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

void ConfusionMatrix::observe(httplog::Truth truth, bool alert) noexcept {
  switch (truth) {
    case httplog::Truth::kMalicious:
      alert ? ++tp : ++fn;
      break;
    case httplog::Truth::kBenign:
      alert ? ++fp : ++tn;
      break;
    case httplog::Truth::kUnknown:
      break;
  }
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) noexcept {
  tp += other.tp;
  fp += other.fp;
  tn += other.tn;
  fn += other.fn;
}

double ConfusionMatrix::sensitivity() const noexcept {
  return ratio(tp, tp + fn);
}
double ConfusionMatrix::specificity() const noexcept {
  return ratio(tn, tn + fp);
}
double ConfusionMatrix::precision() const noexcept { return ratio(tp, tp + fp); }
double ConfusionMatrix::f1() const noexcept {
  const double p = precision();
  const double r = sensitivity();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

stats::ProportionInterval ConfusionMatrix::sensitivity_ci(
    double z) const noexcept {
  return stats::wilson_interval(tp, tp + fn, z);
}
stats::ProportionInterval ConfusionMatrix::specificity_ci(
    double z) const noexcept {
  return stats::wilson_interval(tn, tn + fp, z);
}

}  // namespace divscrape::core
