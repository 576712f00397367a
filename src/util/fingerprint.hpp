// 128-bit state fingerprints for the model checker's visited set.
//
// The checker's product states are canonical byte strings (protocol state +
// observer state + checker state).  Storing the full string per visited
// state makes memory, not CPU, the binding constraint on explorable state
// counts, so the visited set stores a 128-bit fingerprint of the
// serialization instead.
//
// The hash is a 4-lane stripe hash: 32-byte stripes feed four independent
// 64-bit accumulators (one multiply-rotate-multiply round per 8-byte word,
// the xxHash64 round), so the four dependency chains overlap in the CPU
// instead of serializing one finalizer per word; the tail words continue
// the lane rotation, the total length is folded in, and a final avalanche
// draws the two 64-bit halves from two different merges of all four lanes.
// Each lane round is a bijection of the lane for a fixed word and of the
// word for a fixed lane, and each merge is a bijection of any one lane with
// the others fixed, so a change confined to one lane — any single-word
// difference — changes both halves.
//
// Collision risk: with n visited states the probability that any two
// distinct states share a fingerprint is ~ n^2 / 2^129 (birthday bound);
// at n = 10^9 that is ~ 1.5e-21.  See DESIGN.md "Compact fingerprint state
// store" for the full analysis and the `McOptions::exact_states` escape
// hatch that keeps full keys for differential testing.
//
// Fingerprints are compared only within one process run and never
// persisted, so the byte-order-dependent 64-bit loads below are fine (and
// fast), and the function may change between versions.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/hash.hpp"

namespace scv {

struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// (0,0) is reserved as the empty-slot sentinel of FingerprintSet;
  /// fingerprint128 never returns it.
  [[nodiscard]] bool is_zero() const noexcept { return (lo | hi) == 0; }
};

[[nodiscard]] inline Fingerprint fingerprint128(
    std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;  // xxHash64 primes
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  const auto round = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  };
  std::uint64_t v[4] = {0x60ea27eeadc0b5d6ULL, 0xc2b2ae3d27d4eb4fULL,
                        0x9ae16a3b2f90404fULL, 0xcbf29ce484222325ULL};
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 32; p += 32, n -= 32) {
    for (int i = 0; i < 4; ++i) {
      std::uint64_t w;
      std::memcpy(&w, p + 8 * i, 8);
      v[i] = round(v[i], w);
    }
  }
  // Tail: up to three whole words, then the zero-padded remainder, continue
  // the lane rotation; the length fold below separates a key from its
  // zero-extended variants.
  int lane = 0;
  for (; n >= 8; p += 8, n -= 8, ++lane) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    v[lane] = round(v[lane], w);
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    v[lane] = round(v[lane], w);
  }
  const std::uint64_t len = bytes.size();
  const std::uint64_t a = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
                          std::rotl(v[2], 12) + std::rotl(v[3], 18);
  const std::uint64_t b = (v[0] ^ std::rotl(v[2], 29)) +
                          (v[1] ^ std::rotl(v[3], 43)) * kP1;
  Fingerprint fp{mix64(a ^ len), mix64_alt(b + len * kP2)};
  if (fp.is_zero()) fp.lo = 1;  // keep (0,0) reserved for "empty slot"
  return fp;
}

}  // namespace scv
