#pragma once

/// \file rng.hpp
/// Deterministic random number generation (xoshiro256**).
///
/// Every stochastic component in ecoHMEM (PEBS sampling, per-rank jitter,
/// ASLR bases) draws from an explicitly seeded `Rng` so that traces,
/// placements and benchmark rows are bit-reproducible run to run.

#include <cstdint>

namespace ecohmem {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) (bound > 0); unbiased via rejection.
  std::uint64_t next_below(std::uint64_t bound) {
    for (;;) {
      const std::uint64_t r = next_u64();
      // The rejection threshold 2^64 mod bound is below `bound`, so only
      // draws under `bound` need it computed.
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Gaussian via Box–Muller (one value per call; no caching).
  double gaussian(double mean, double stddev);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace ecohmem
