#include "ecohmem/memsim/tier.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace ecohmem::memsim {
namespace {

TEST(MemoryTier, IdleLatencyAtZeroUtilization) {
  MemoryTier dram(ddr4_dram_spec());
  EXPECT_DOUBLE_EQ(dram.read_latency_ns(0.0), 90.0);
  MemoryTier pmem(optane_pmem_spec(6));
  EXPECT_DOUBLE_EQ(pmem.read_latency_ns(0.0), 185.0);
}

TEST(MemoryTier, Fig2CalibrationPointsAt22GBs) {
  // The paper's §VII example numbers: at 22 GB/s read-only traffic,
  // DRAM ~117 ns and PMem ~239 ns.
  MemoryTier dram(ddr4_dram_spec());
  EXPECT_NEAR(dram.read_latency_at(22.0, 0.0), 117.0, 3.0);
  MemoryTier pmem(optane_pmem_spec(6));
  EXPECT_NEAR(pmem.read_latency_at(22.0, 0.0), 239.0, 6.0);
}

TEST(MemoryTier, PaperLatencyGapAtHighBandwidth) {
  // "At 22 GB/s, PMem costs 2.3x higher latency than DRAM." — the
  // paper's own example numbers (117 ns vs 239 ns) give 2.04x; we
  // calibrate against those.
  MemoryTier dram(ddr4_dram_spec());
  MemoryTier pmem(optane_pmem_spec(6));
  const double ratio = pmem.read_latency_at(22.0, 0.0) / dram.read_latency_at(22.0, 0.0);
  EXPECT_NEAR(ratio, 2.04, 0.15);
}

TEST(MemoryTier, LatencyMonotoneInUtilization) {
  MemoryTier pmem(optane_pmem_spec(6));
  double prev = 0.0;
  for (double u = 0.0; u <= 1.0; u += 0.05) {
    const double lat = pmem.read_latency_ns(u);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

TEST(MemoryTier, WritesConsumeMoreUtilizationOnPmem) {
  MemoryTier pmem(optane_pmem_spec(6));
  // Same byte rate as writes loads the device much harder than as reads.
  EXPECT_GT(pmem.utilization(0.0, 5.0), pmem.utilization(5.0, 0.0));
}

TEST(MemoryTier, UtilizationClamped) {
  MemoryTier pmem(optane_pmem_spec(6));
  EXPECT_LE(pmem.utilization(1000.0, 1000.0), kMaxUtilization);
}

TEST(MemoryTier, DeliverableReadShrinksWithWriteLoad) {
  MemoryTier pmem(optane_pmem_spec(6));
  const double free_read = pmem.deliverable_read_gbs(0.0);
  const double loaded_read = pmem.deliverable_read_gbs(5.0);
  EXPECT_GT(free_read, loaded_read);
  EXPECT_GE(loaded_read, 0.0);
}

TEST(MemoryTier, Pmem2HasThirdOfBandwidth) {
  const TierSpec six = optane_pmem_spec(6);
  const TierSpec two = optane_pmem_spec(2);
  EXPECT_NEAR(two.peak_read_gbs, six.peak_read_gbs / 3.0, 1e-9);
  EXPECT_NEAR(two.peak_write_gbs, six.peak_write_gbs / 3.0, 1e-9);
  EXPECT_EQ(two.capacity, six.capacity / 3);
}

TEST(MemorySystem, PaperSystemHasDramThenPmem) {
  const auto sys = paper_system();
  ASSERT_TRUE(sys.has_value());
  ASSERT_EQ(sys->tier_count(), 2u);
  EXPECT_EQ(sys->tier(0).name(), "dram");
  EXPECT_EQ(sys->tier(1).name(), "pmem");
  EXPECT_EQ(sys->fallback_index(), 1u);
}

TEST(MemorySystem, TierIndexLookup) {
  const auto sys = paper_system();
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(sys->tier_index("pmem").value(), 1u);
  EXPECT_FALSE(sys->tier_index("hbm").has_value());
}

TEST(MemorySystem, RejectsDuplicateNames) {
  auto a = ddr4_dram_spec();
  auto b = ddr4_dram_spec();
  b.is_fallback = true;
  EXPECT_FALSE(MemorySystem::create({a, b}).has_value());
}

TEST(MemorySystem, RequiresExactlyOneFallback) {
  auto dram = ddr4_dram_spec();
  auto pmem = optane_pmem_spec();
  pmem.is_fallback = false;
  EXPECT_FALSE(MemorySystem::create({dram, pmem}).has_value());
  dram.is_fallback = true;
  pmem.is_fallback = true;
  EXPECT_FALSE(MemorySystem::create({dram, pmem}).has_value());
}

TEST(MemorySystem, RejectsDegenerateSpecs) {
  auto pmem = optane_pmem_spec();
  auto zero_cap = ddr4_dram_spec(0);
  EXPECT_FALSE(MemorySystem::create({zero_cap, pmem}).has_value());

  auto bad_lat = ddr4_dram_spec();
  bad_lat.loaded_read_ns = bad_lat.idle_read_ns - 1;
  EXPECT_FALSE(MemorySystem::create({bad_lat, pmem}).has_value());

  EXPECT_FALSE(MemorySystem::create({}).has_value());
}

TEST(MemorySystem, SortsByPerformanceRank) {
  auto dram = ddr4_dram_spec();
  auto pmem = optane_pmem_spec();
  // Deliberately pass pmem first; creation must order dram (rank 0) first.
  const auto sys = MemorySystem::create({pmem, dram});
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(sys->tier(0).name(), "dram");
}

/// The tier specs the property sweeps below run over. The wrapper prints
/// as the tier's name and capacity: gtest's default printer dumps
/// TierSpec's raw bytes, string pointer included, so test names
/// discovered from it change with every build.
struct TierCase {
  TierSpec spec;
};

std::string case_name(const TierCase& c) {
  return c.spec.name + "_" + std::to_string(c.spec.capacity >> 30);
}

void PrintTo(const TierCase& c, std::ostream* os) { *os << case_name(c); }

std::vector<TierCase> all_tiers() {
  return {{ddr4_dram_spec()}, {optane_pmem_spec(6)}, {optane_pmem_spec(2)}, {hbm2_spec()}};
}

/// Property sweep: for every tier spec, latency at the reference
/// utilization equals the configured loaded latency.
class TierParamTest : public ::testing::TestWithParam<TierCase> {};

TEST_P(TierParamTest, LoadedLatencyAnchoredAtReferenceUtilization) {
  const TierSpec& spec = GetParam().spec;
  MemoryTier tier(spec);
  EXPECT_NEAR(tier.read_latency_ns(kReferenceUtilization), spec.loaded_read_ns, 1e-9);
  EXPECT_NEAR(tier.write_latency_ns(kReferenceUtilization), spec.loaded_write_ns, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, TierParamTest, ::testing::ValuesIn(all_tiers()),
                         [](const auto& param_info) { return case_name(param_info.param); });

/// Saturation sweep over the same specs.
class TierSaturationTest : public ::testing::TestWithParam<TierCase> {};

TEST_P(TierSaturationTest, LatencyBoundedAtSaturation) {
  const TierSpec& spec = GetParam().spec;
  MemoryTier tier(spec);
  const double at_max = tier.read_latency_ns(kMaxUtilization);
  EXPECT_GT(at_max, spec.loaded_read_ns);
  EXPECT_LT(at_max, spec.loaded_read_ns * 10.0);  // finite blow-up
}

INSTANTIATE_TEST_SUITE_P(AllTiers, TierSaturationTest, ::testing::ValuesIn(all_tiers()),
                         [](const auto& param_info) { return case_name(param_info.param); });

}  // namespace
}  // namespace ecohmem::memsim
