#include "detectors/detector.hpp"

namespace divscrape::detectors {

std::string_view to_string(AlertReason r) noexcept {
  switch (r) {
    case AlertReason::kNone: return "none";
    case AlertReason::kBadUserAgent: return "bad-user-agent";
    case AlertReason::kRateLimit: return "rate-limit";
    case AlertReason::kIpReputation: return "ip-reputation";
    case AlertReason::kSubnetReputation: return "subnet-reputation";
    case AlertReason::kFingerprint: return "fingerprint";
    case AlertReason::kBehavioral: return "behavioral";
    case AlertReason::kProtocolAnomaly: return "protocol-anomaly";
    case AlertReason::kApiAbuse: return "api-abuse";
    case AlertReason::kCacheSweep: return "cache-sweep";
  }
  return "?";
}

namespace {
constexpr std::uint32_t kUaSectionMagic = 0x494E544Eu;  // "INTN"
}  // namespace

void put_empty_ua_section(util::StateWriter& w) {
  util::put_tag(w, kUaSectionMagic, 1);
  w.u64(0);
}

bool check_empty_ua_section(util::StateReader& r) {
  if (!util::check_tag(r, kUaSectionMagic, 1)) return false;
  if (r.u64() != 0) r.fail();
  return r.ok();
}

}  // namespace divscrape::detectors
