#include "core/joiner.hpp"

#include <stdexcept>

namespace divscrape::core {

JointResults::JointResults(std::vector<std::string> names)
    : names_(std::move(names)) {
  const std::size_t n = names_.size();
  alert_totals_.assign(n, 0);
  pairs_.resize(n * (n - 1) / 2);
  fault_pairs_.resize(n * (n - 1) / 2);
  alerted_status_.resize(n);
  unique_status_.resize(n);
  confusion_.resize(n);
  adjudicated_.resize(n == 0 ? 0 : n);
  reasons_.resize(n);
  unique_reasons_.resize(n);
}

std::size_t JointResults::pair_index(std::size_t i, std::size_t j) const {
  if (i >= j || j >= names_.size())
    throw std::out_of_range("JointResults::pair: requires i < j < n");
  // Upper-triangular row-major offset.
  const std::size_t n = names_.size();
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

const ContingencyTable& JointResults::pair(std::size_t i,
                                           std::size_t j) const {
  return pairs_.at(pair_index(i, j));
}

const ContingencyTable& JointResults::fault_pair(std::size_t i,
                                                 std::size_t j) const {
  return fault_pairs_.at(pair_index(i, j));
}

std::uint64_t JointResults::truth_count(httplog::Truth t) const {
  switch (t) {
    case httplog::Truth::kBenign: return truth_benign_;
    case httplog::Truth::kMalicious: return truth_malicious_;
    case httplog::Truth::kUnknown:
      return total_ - truth_benign_ - truth_malicious_;
  }
  return 0;
}

void JointResults::observe(const httplog::LogRecord& record,
                           divscrape::span<const detectors::Verdict> verdicts) {
  const std::size_t n = names_.size();
  ++total_;
  if (record.truth == httplog::Truth::kBenign) ++truth_benign_;
  if (record.truth == httplog::Truth::kMalicious) ++truth_malicious_;
  all_status_.add(record.status);

  std::size_t alert_count = 0;
  std::size_t sole_alerter = SIZE_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    if (!verdicts[i].alert) continue;
    ++alert_count;
    sole_alerter = alert_count == 1 ? i : SIZE_MAX;
    ++alert_totals_[i];
    alerted_status_[i].add(record.status);
    reasons_[i].add(std::string(to_string(verdicts[i].reason)));
    confusion_[i].observe(record.truth, true);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!verdicts[i].alert) confusion_[i].observe(record.truth, false);
  }
  if (alert_count == 1) {
    unique_status_[sole_alerter].add(record.status);
    unique_reasons_[sole_alerter].add(
        std::string(to_string(verdicts[sole_alerter].reason)));
  }
  // Pairwise tables (alert agreement, and fault agreement vs truth).
  const bool truth_known = record.truth != httplog::Truth::kUnknown;
  const bool is_malicious = record.truth == httplog::Truth::kMalicious;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++idx) {
      pairs_[idx].observe(verdicts[i].alert, verdicts[j].alert);
      if (truth_known) {
        fault_pairs_[idx].observe(verdicts[i].alert != is_malicious,
                                  verdicts[j].alert != is_malicious);
      }
    }
  }
  // k-of-N adjudication.
  for (std::size_t k = 1; k <= n; ++k) {
    adjudicated_[k - 1].observe(record.truth, alert_count >= k);
  }
}

void JointResults::merge(const JointResults& other) {
  if (other.names_ != names_)
    throw std::invalid_argument("JointResults::merge: pool mismatch");
  total_ += other.total_;
  truth_benign_ += other.truth_benign_;
  truth_malicious_ += other.truth_malicious_;
  all_status_.merge(other.all_status_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    alert_totals_[i] += other.alert_totals_[i];
    alerted_status_[i].merge(other.alerted_status_[i]);
    unique_status_[i].merge(other.unique_status_[i]);
    confusion_[i].merge(other.confusion_[i]);
    reasons_[i].merge(other.reasons_[i]);
    unique_reasons_[i].merge(other.unique_reasons_[i]);
  }
  for (std::size_t p = 0; p < pairs_.size(); ++p) {
    pairs_[p].merge(other.pairs_[p]);
    fault_pairs_[p].merge(other.fault_pairs_[p]);
  }
  for (std::size_t k = 0; k < adjudicated_.size(); ++k)
    adjudicated_[k].merge(other.adjudicated_[k]);
}

namespace {
constexpr std::uint32_t kResultsMagic = 0x4A524553u;  // "JRES"
constexpr std::uint32_t kJoinerMagic = 0x4A4F494Eu;   // "JOIN"
}  // namespace

void JointResults::save_state(util::StateWriter& w) const {
  util::put_tag(w, kResultsMagic, 1);
  w.u32(static_cast<std::uint32_t>(names_.size()));
  for (const std::string& name : names_) w.str(name);
  w.u64(total_);
  w.u64(truth_benign_);
  w.u64(truth_malicious_);
  for (const std::uint64_t v : alert_totals_) w.u64(v);
  for (const ContingencyTable& t : pairs_) t.save_state(w);
  for (const ContingencyTable& t : fault_pairs_) t.save_state(w);
  for (const auto& c : alerted_status_) c.save_state(w);
  for (const auto& c : unique_status_) c.save_state(w);
  all_status_.save_state(w);
  for (const ConfusionMatrix& c : confusion_) c.save_state(w);
  for (const ConfusionMatrix& c : adjudicated_) c.save_state(w);
  for (const auto& c : reasons_) c.save_state(w);
  for (const auto& c : unique_reasons_) c.save_state(w);
}

bool JointResults::load_state(util::StateReader& r) {
  const auto cold = [this] {
    *this = JointResults(std::vector<std::string>(names_));
  };
  const auto fail = [&] {
    r.fail();
    cold();
    return false;
  };
  if (!util::check_tag(r, kResultsMagic, 1)) return fail();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n != names_.size()) return fail();
  for (const std::string& name : names_) {
    if (r.str() != name || !r.ok()) return fail();
  }
  total_ = r.u64();
  truth_benign_ = r.u64();
  truth_malicious_ = r.u64();
  for (std::uint64_t& v : alert_totals_) v = r.u64();
  for (ContingencyTable& t : pairs_)
    if (!t.load_state(r)) return fail();
  for (ContingencyTable& t : fault_pairs_)
    if (!t.load_state(r)) return fail();
  for (auto& c : alerted_status_)
    if (!c.load_state(r)) return fail();
  for (auto& c : unique_status_)
    if (!c.load_state(r)) return fail();
  if (!all_status_.load_state(r)) return fail();
  for (ConfusionMatrix& c : confusion_)
    if (!c.load_state(r)) return fail();
  for (ConfusionMatrix& c : adjudicated_)
    if (!c.load_state(r)) return fail();
  for (auto& c : reasons_)
    if (!c.load_state(r)) return fail();
  for (auto& c : unique_reasons_)
    if (!c.load_state(r)) return fail();
  if (!r.ok()) return fail();
  return true;
}

namespace {

std::vector<std::string> pool_names(
    const std::vector<detectors::Detector*>& pool) {
  std::vector<std::string> names;
  names.reserve(pool.size());
  for (const auto* d : pool) names.emplace_back(d->name());
  return names;
}

std::vector<detectors::Detector*> raw_pointers(
    const std::vector<std::unique_ptr<detectors::Detector>>& pool) {
  std::vector<detectors::Detector*> out;
  out.reserve(pool.size());
  for (const auto& d : pool) out.push_back(d.get());
  return out;
}

}  // namespace

AlertJoiner::AlertJoiner(
    const std::vector<std::unique_ptr<detectors::Detector>>& pool)
    : pool_(raw_pointers(pool)),
      scratch_(pool_.size()),
      results_(pool_names(pool_)) {}

divscrape::span<const detectors::Verdict> AlertJoiner::process(
    const httplog::LogRecord& record) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    scratch_[i] = pool_[i]->evaluate(record);
  }
  results_.observe(record, scratch_);
  return scratch_;
}

bool AlertJoiner::save_state(util::StateWriter& w) const {
  // Serialize detectors into scratch blobs first so an unsupported pool
  // member (a baseline without save_state) leaves `w` untouched.
  std::vector<std::string> blobs;
  blobs.reserve(pool_.size());
  for (const auto* d : pool_) {
    util::StateWriter blob;
    if (!d->save_state(blob)) return false;
    blobs.push_back(blob.take());
  }
  util::put_tag(w, kJoinerMagic, 1);
  w.u32(static_cast<std::uint32_t>(pool_.size()));
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    w.str(pool_[i]->name());
    w.str(blobs[i]);
  }
  results_.save_state(w);
  return true;
}

bool AlertJoiner::load_state(util::StateReader& r) {
  const auto fail = [&] {
    r.fail();
    reset();
    return false;
  };
  if (!util::check_tag(r, kJoinerMagic, 1)) return fail();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n != pool_.size()) return fail();
  for (auto* d : pool_) {
    const std::string_view name = r.str();
    const std::string_view blob = r.str();
    if (!r.ok() || name != d->name()) return fail();
    util::StateReader sub(blob);
    // Each detector must accept its blob and consume it exactly; leftover
    // bytes mean a format drift the version tag did not catch.
    if (!d->load_state(sub) || !sub.ok() || !sub.at_end()) return fail();
  }
  if (!results_.load_state(r)) return fail();
  return true;
}

void AlertJoiner::reset() {
  for (auto* d : pool_) d->reset();
  results_ = JointResults(results_.names());
}

}  // namespace divscrape::core
