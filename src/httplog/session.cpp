#include "httplog/session.hpp"

namespace divscrape::httplog {

const UserAgentInfo& UaInfoCache::get(std::uint32_t token,
                                      std::string_view user_agent) {
  if (token == 0 || token > kMaxTokens) {
    uncached_ = classify_user_agent(user_agent);
    return uncached_;
  }
  if (entries_.size() < token) entries_.resize(token);
  Entry& entry = entries_[token - 1];
  if (!entry.valid) {
    entry.info = classify_user_agent(user_agent);
    entry.valid = true;
  }
  return entry.info;
}

void UaInfoCache::clear() noexcept { entries_.clear(); }

}  // namespace divscrape::httplog
