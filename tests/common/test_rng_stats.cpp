#include <gtest/gtest.h>

#include "ecohmem/common/rng.hpp"
#include "ecohmem/common/stats.hpp"

namespace ecohmem {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowIsBounded) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(11);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[r.next_below(8)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

/// Lemire-style rejection as first written: the threshold computed on
/// every call. `next_below` must return the same values and consume the
/// same number of raw draws.
std::uint64_t reference_next_below(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, NextBelowMatchesReferenceFormula) {
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  7,
                                  64,
                                  (1ull << 32) - 1,
                                  (1ull << 32) + 1,
                                  1ull << 63,
                                  (1ull << 63) + 1,
                                  ~0ull};
  for (const std::uint64_t seed : {1ull, 0x5eedull, 0x9e3779b97f4a7c15ull}) {
    for (const std::uint64_t bound : bounds) {
      Rng fast(seed);
      Rng reference(seed);
      int mismatches = 0;
      for (int i = 0; i < 100000; ++i) {
        if (fast.next_below(bound) != reference_next_below(reference, bound)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << " bound " << bound;
      EXPECT_EQ(fast.next_u64(), reference.next_u64()) << "seed " << seed << " bound " << bound;
    }
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(r.gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.rsd(), 0.0);
}

TEST(RunningStats, RsdMatchesDefinition) {
  RunningStats s;
  s.add(9.0);
  s.add(11.0);
  EXPECT_NEAR(s.rsd(), s.stddev() / 10.0, 1e-12);
}

TEST(PercentileSampler, InterpolatesBetweenRanks) {
  PercentileSampler p;
  for (int i = 1; i <= 5; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(p.percentile(25), 2.0);
}

TEST(PercentileSampler, EmptyReturnsZero) {
  PercentileSampler p;
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
}

}  // namespace
}  // namespace ecohmem
