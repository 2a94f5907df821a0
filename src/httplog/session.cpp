#include "httplog/session.hpp"

namespace divscrape::httplog {

const UserAgentInfo& UaInfoCache::get(std::uint32_t key,
                                      std::string_view user_agent) {
  const bool local = (key & kLocalUaTokenBit) != 0;
  // A hashed token keeps kHashedUaTokenBit, which lies above the cap.
  static_assert(kHashedUaTokenBit > kMaxLocalUaTokens);
  const std::uint32_t token = key & ~kLocalUaTokenBit;
  if (token == 0 || token > kMaxLocalUaTokens) {
    uncached_ = classify_user_agent(user_agent);
    return uncached_;
  }
  auto& cache = local ? local_ : stamped_;
  if (cache.size() < token) cache.resize(token);
  Entry& entry = cache[token - 1];
  if (!entry.valid) {
    entry.info = classify_user_agent(user_agent);
    entry.valid = true;
  }
  return entry.info;
}

void UaInfoCache::clear() noexcept {
  stamped_.clear();
  local_.clear();
}

}  // namespace divscrape::httplog
