// Tests for the 128-bit fingerprint state store: hash determinism and
// sensitivity, open-addressing set mechanics across growth, and a large
// differential run against std::unordered_set<std::string> — the exact
// store the model checker used before fingerprints.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "util/fingerprint.hpp"
#include "util/fp_set.hpp"
#include "util/rng.hpp"

namespace scv {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Fingerprint, DeterministicAndNeverZero) {
  const std::string key = "canonical product state bytes";
  EXPECT_EQ(fingerprint128(as_bytes(key)), fingerprint128(as_bytes(key)));
  EXPECT_FALSE(fingerprint128(as_bytes(key)).is_zero());
  EXPECT_FALSE(fingerprint128({}).is_zero());
}

TEST(Fingerprint, SensitiveToContentAndLength) {
  const std::string a(32, 'x');
  std::string b = a;
  b[17] ^= 1;
  EXPECT_NE(fingerprint128(as_bytes(a)), fingerprint128(as_bytes(b)));
  // A strict prefix (same words, shorter tail) must differ too.
  std::string c = a + std::string(1, '\0');
  EXPECT_NE(fingerprint128(as_bytes(a)), fingerprint128(as_bytes(c)));
  // Both lanes react, not just one.
  const Fingerprint fa = fingerprint128(as_bytes(a));
  const Fingerprint fb = fingerprint128(as_bytes(b));
  EXPECT_NE(fa.lo, fb.lo);
  EXPECT_NE(fa.hi, fb.hi);
}

// The stripe hash has separate paths for whole 32-byte stripes, whole tail
// words and the partial last word; lengths 0..96 cover every combination
// (no stripe, one to three stripes, each with 0..3 tail words and 0..7
// tail bytes).
std::vector<std::uint8_t> pattern_bytes(std::size_t len, std::uint64_t seed) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(mix64(seed + i));
  }
  return v;
}

TEST(Fingerprint, EveryLengthIsDeterministicAndDistinct) {
  // Patterned keys, and all-zero keys that only their length separates.
  std::vector<Fingerprint> seen;
  for (std::size_t len = 0; len <= 96; ++len) {
    const auto bytes = pattern_bytes(len, 7);
    const std::vector<std::uint8_t> zeros(len, 0);
    for (const Fingerprint fp :
         {fingerprint128(bytes), fingerprint128(zeros)}) {
      EXPECT_FALSE(fp.is_zero()) << len;
      for (const Fingerprint& other : seen) {
        EXPECT_NE(fp.lo, other.lo) << len;
        EXPECT_NE(fp.hi, other.hi) << len;
      }
      if (len > 0) seen.push_back(fp);  // the two empty keys coincide
    }
    EXPECT_EQ(fingerprint128(bytes), fingerprint128(pattern_bytes(len, 7)))
        << len;
  }
}

TEST(Fingerprint, SingleBitFlipChangesBothHalves) {
  for (std::size_t len = 1; len <= 96; ++len) {
    const auto base = pattern_bytes(len, 11);
    const Fingerprint fb = fingerprint128(base);
    for (std::size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = base;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        const Fingerprint ff = fingerprint128(flipped);
        EXPECT_NE(ff.lo, fb.lo) << len << " byte " << i << " bit " << bit;
        EXPECT_NE(ff.hi, fb.hi) << len << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(Fingerprint, PrefixAndExtensionDiffer) {
  const auto full = pattern_bytes(96, 13);
  const std::vector<std::uint8_t> zeros(96, 0);
  for (std::size_t len = 0; len < 96; ++len) {
    const std::span<const std::uint8_t> prefix(full.data(), len);
    for (std::size_t ext = len + 1; ext <= 96; ++ext) {
      EXPECT_NE(fingerprint128(prefix),
                fingerprint128(std::span(full.data(), ext)))
          << len << " vs " << ext;
      // Zero-padding is the case a tail fold could miss.
      EXPECT_NE(fingerprint128(std::span(zeros.data(), len)),
                fingerprint128(std::span(zeros.data(), ext)))
          << len << " vs " << ext << " (zeros)";
    }
  }
}

TEST(Fingerprint, NeverReturnsTheEmptySlotSentinel) {
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < 20'000; ++i) {
    const auto bytes = pattern_bytes(rng.below(97), rng());
    EXPECT_FALSE(fingerprint128(bytes).is_zero());
  }
  for (std::size_t len = 0; len <= 96; ++len) {
    EXPECT_FALSE(
        fingerprint128(std::vector<std::uint8_t>(len, 0)).is_zero());
    EXPECT_FALSE(
        fingerprint128(std::vector<std::uint8_t>(len, 0xff)).is_zero());
  }
}

TEST(FingerprintSet, InsertContainsAndGrowth) {
  FingerprintSet set;
  const std::size_t n = 200'000;  // forces many doublings from 64 slots
  for (std::size_t i = 0; i < n; ++i) {
    const Fingerprint fp{mix64(i + 1), mix64_alt(i + 1)};
    EXPECT_FALSE(set.contains(fp));
    EXPECT_TRUE(set.insert(fp));
    EXPECT_FALSE(set.insert(fp));  // duplicate
    EXPECT_TRUE(set.contains(fp));
  }
  EXPECT_EQ(set.size(), n);
  // Power-of-two capacity, load kept at or under the 3/4 growth threshold.
  EXPECT_EQ(set.capacity() & (set.capacity() - 1), 0u);
  EXPECT_LE(set.load_factor(), 0.75);
  EXPECT_EQ(set.memory_bytes(), set.capacity() * sizeof(Fingerprint));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(set.contains(Fingerprint{mix64(i + 1), mix64_alt(i + 1)}));
  }
}

TEST(FingerprintSet, PresizedConstructorHoldsExpectedWithoutGrowth) {
  FingerprintSet set(100'000);
  const std::size_t cap = set.capacity();
  for (std::size_t i = 0; i < 100'000; ++i) {
    set.insert(Fingerprint{mix64(i + 1), mix64_alt(i + 1)});
  }
  EXPECT_EQ(set.capacity(), cap);
}

TEST(FingerprintSet, DifferentialAgainstStringSet) {
  // >= 100k keys with deliberate duplicates: every insert must agree with
  // std::unordered_set<std::string> on new-vs-seen, and the final sizes
  // must match.  (A disagreement would mean a fingerprint collision;
  // at this scale the probability is ~ 1e-29.)
  Xoshiro256 rng(20'260'806);
  FingerprintSet fps;
  std::unordered_set<std::string> strings;
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < 150'000; ++i) {
    std::string key;
    if (!pool.empty() && rng.below(4) == 0) {
      key = pool[rng.below(pool.size())];  // forced duplicate
    } else {
      const std::size_t len = rng.below(64);
      key.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        key.push_back(static_cast<char>(rng.below(256)));
      }
      if (pool.size() < 4096) pool.push_back(key);
    }
    const bool fresh_string = strings.insert(key).second;
    const bool fresh_fp = fps.insert(fingerprint128(as_bytes(key)));
    ASSERT_EQ(fresh_string, fresh_fp) << "at key " << i;
  }
  EXPECT_EQ(fps.size(), strings.size());
}

}  // namespace
}  // namespace scv
