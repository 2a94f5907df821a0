// StringInterner tests: token stability, dense allocation-ordered ids,
// find() agreeing with intern(), growth behaviour, and per-instance independence (the
// per-shard deployment depends on instances never sharing token space
// semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/hash.hpp"
#include "util/interner.hpp"
#include "util/state.hpp"

namespace {

using divscrape::util::StringInterner;

TEST(StringInterner, TokensAreDenseAndAllocationOrdered) {
  StringInterner interner;
  EXPECT_EQ(interner.intern("alpha"), 1u);
  EXPECT_EQ(interner.intern("beta"), 2u);
  EXPECT_EQ(interner.intern("gamma"), 3u);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(StringInterner, RepeatInternIsStable) {
  StringInterner interner;
  const auto a = interner.intern("Mozilla/5.0 (X11; Linux x86_64)");
  const auto b = interner.intern("curl/7.58.0");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.intern("Mozilla/5.0 (X11; Linux x86_64)"), a);
    EXPECT_EQ(interner.intern("curl/7.58.0"), b);
  }
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInterner, RoundTripLookup) {
  StringInterner interner;
  const std::vector<std::string> strings = {"", "-", "/offers/{n}",
                                            "a rather longer string value"};
  std::vector<std::uint32_t> tokens;
  for (const auto& s : strings) tokens.push_back(interner.intern(s));
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(interner.find(strings[i]), tokens[i]);
  }
}

TEST(StringInterner, InvalidAndUnknownTokensLookupEmpty) {
  StringInterner interner;
  (void)interner.intern("x");
  EXPECT_EQ(interner.find(""), StringInterner::kInvalidToken);
  EXPECT_EQ(interner.find("y"), StringInterner::kInvalidToken);
  EXPECT_EQ(interner.size(), 1u);  // no token past 1 was minted
}

TEST(StringInterner, NeverReturnsInvalidToken) {
  StringInterner interner;
  EXPECT_NE(interner.intern(""), StringInterner::kInvalidToken);
}

TEST(StringInterner, SurvivesGrowthPastInitialTable) {
  // Push far past the initial table so several rehashes happen; tokens
  // minted before growth must stay valid and stable after it.
  StringInterner interner;
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 5000; ++i) {
    tokens.push_back(interner.intern("key-" + std::to_string(i)));
  }
  EXPECT_EQ(interner.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(interner.intern("key-" + std::to_string(i)), tokens[i]);
    EXPECT_EQ(interner.find("key-" + std::to_string(i)), tokens[i]);
  }
}

TEST(StringInterner, InstancesAreIndependent) {
  // Per-shard instances: interning in one instance must not affect the
  // tokens another instance mints (each shard owns its token space).
  StringInterner a;
  StringInterner b;
  EXPECT_EQ(a.intern("one"), 1u);
  EXPECT_EQ(a.intern("two"), 2u);
  EXPECT_EQ(b.intern("two"), 1u);  // b has never seen "one"
  EXPECT_EQ(b.intern("one"), 2u);
  EXPECT_EQ(a.find("one"), 1u);
  EXPECT_EQ(b.find("two"), 1u);
}

TEST(StringInterner, FindNeverInserts) {
  StringInterner interner;
  EXPECT_EQ(interner.find("ghost"), StringInterner::kInvalidToken);
  EXPECT_EQ(interner.size(), 0u);
  const auto tok = interner.intern("real");
  EXPECT_EQ(interner.find("real"), tok);
  EXPECT_EQ(interner.find("ghost"), StringInterner::kInvalidToken);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, ClearForgetsEverything) {
  StringInterner interner;
  (void)interner.intern("a");
  (void)interner.intern("b");
  interner.clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.find("a"), StringInterner::kInvalidToken);
  EXPECT_EQ(interner.intern("b"), 1u);  // dense ids restart
}

TEST(HashCombine, OrderAndValueSensitive) {
  using divscrape::util::hash_combine;
  const std::size_t ab = hash_combine(1, 2);
  const std::size_t ba = hash_combine(2, 1);
  EXPECT_NE(ab, ba);
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
  // The seed's `h1 ^ (h2 << 1)` mapped (x, y) and (y<<1>>1, x... ) style
  // families onto each other; the boost-style mix must not collapse a
  // simple diagonal family.
  std::vector<std::size_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    seen.push_back(hash_combine(i, i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// Probe-hash stress: keys that differ only after a long shared prefix (so
// only the last word mixed into the hash differs), and keys of every length
// 0-40 (every tail size of the word-at-a-time hash). Tokens must stay dense
// and first-seen ordered, find() must agree with intern(), and save_state must
// round-trip to the identical token assignment.
TEST(StringInterner, StressSharedPrefixesAndEveryLength) {
  std::vector<std::string> keys;
  const std::string prefix(64, 'p');
  for (int i = 0; i < 10'000; ++i) {
    std::string digits = std::to_string(i);
    keys.push_back(prefix + std::string(6 - digits.size(), '0') + digits);
  }
  for (std::size_t n = 0; n <= 40; ++n) {
    keys.push_back(std::string(n, 'a'));
    std::string varied(n, '\0');  // NUL bytes are data, not terminators
    for (std::size_t i = 0; i < n; ++i) varied[i] = static_cast<char>(i * 7);
    keys.push_back(varied);
  }
  keys.push_back(std::string(40, 'b'));
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());  // "" twice

  StringInterner interner;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(interner.intern(keys[i]), i + 1) << "key " << i;
  }
  ASSERT_EQ(interner.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(interner.intern(keys[i]), i + 1);
    EXPECT_EQ(interner.find(keys[i]), i + 1);
  }
  EXPECT_EQ(interner.find(prefix + "x"), StringInterner::kInvalidToken);

  divscrape::util::StateWriter w;
  interner.save_state(w);
  StringInterner restored;
  divscrape::util::StateReader r(w.buffer());
  ASSERT_TRUE(restored.load_state(r));
  ASSERT_EQ(restored.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(restored.find(keys[i]), i + 1);
  }
  divscrape::util::StateWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

}  // namespace
