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

}  // namespace divscrape::detectors
