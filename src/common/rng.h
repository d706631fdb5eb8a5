// Deterministic, splittable random number generation.
//
// Every stochastic component of the library (noise injection, measurement
// collapse, ensemble sampling) draws from an eqc::Rng that is seeded
// explicitly, so every experiment in the paper reproduction is replayable
// from a stated seed.  The generator is xoshiro256** (Blackman & Vigna),
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/assert.h"

namespace eqc {

/// SplitMix64 step; used for seeding and for deriving child seeds.
inline std::uint64_t split_mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace rng_detail {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace rng_detail

/// Counter-split stream derivation: the seed of stream `index` under master
/// seed `seed`, as a pure function of the pair.  Unlike Rng::split(), which
/// advances (and therefore depends on) the parent stream, adjacent indices
/// yield decorrelated streams no matter which order — or on which thread —
/// they are instantiated.  This is the per-trial / per-item scheme shared by
/// the Monte-Carlo driver and the campaign engine.
inline std::uint64_t derive_stream_seed(std::uint64_t seed,
                                        std::uint64_t index) {
  // Two throwaway SplitMix64 rounds decorrelate adjacent indices before the
  // third output is used as the child seed (the Rng constructor runs the
  // state through SplitMix64 again to fill all four xoshiro words).
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  (void)split_mix64(state);
  (void)split_mix64(state);
  return split_mix64(state);
}

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = split_mix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 random bits.  Inline: this is the innermost operation of the
  /// Monte-Carlo drivers (backend measurement draws, fault gaps and error
  /// draws).
  std::uint64_t operator()() {
    const std::uint64_t result = rng_detail::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rng_detail::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 top bits scaled into the unit interval.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (p is clamped to [0,1]; NaN violates the
  /// contract — both clamp branches and the uniform() compare are false
  /// for NaN, which would silently read as "never").
  bool bernoulli(double p) {
    EQC_EXPECTS(!std::isnan(p));
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, bound) — bound must be > 0.  Inline so a
  /// constant bound folds its rejection threshold at compile time.
  std::uint64_t below(std::uint64_t bound) {
    EQC_EXPECTS(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// The seed split() would build its child from, advancing this stream
  /// exactly as split() does — for callers that construct the child only
  /// if they end up drawing from it.
  std::uint64_t split_seed() {
    // A fresh seed derived from two outputs keeps the child stream
    // decorrelated from the parent's subsequent output.
    const std::uint64_t a = (*this)();
    const std::uint64_t b = (*this)();
    return a ^ rng_detail::rotl(b, 29) ^ 0xD1B54A32D192ED03ULL;
  }

  /// Derive an independent child generator (for per-trial / per-computer
  /// streams that must not interact).
  Rng split() { return Rng(split_seed()); }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace eqc
