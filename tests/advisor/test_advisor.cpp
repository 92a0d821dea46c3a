#include <gtest/gtest.h>

#include <sstream>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"

namespace ecohmem::advisor {
namespace {

analyzer::SiteRecord make_site(trace::StackId id, Bytes size, double loads, double stores = 0.0,
                               std::uint64_t allocs = 1) {
  analyzer::SiteRecord s;
  s.stack = id;
  s.callstack = bom::CallStack{{{0, 0x100 + id * 0x40}}};
  s.max_size = size;
  s.peak_live_bytes = size;
  s.alloc_count = allocs;
  s.load_misses = loads;
  s.store_misses = stores;
  return s;
}

TEST(AdvisorConfig, ParsesFromConfigFile) {
  const auto cfg = Config::parse(R"(
[advisor]
footprint = max_size

[memory]
name = dram
limit = 12GB
load_coef = 1.0
store_coef = 0.125
order = 0

[memory]
name = pmem
limit = 3TB
order = 1
fallback = true
)");
  ASSERT_TRUE(cfg.has_value());
  const auto advisor_cfg = AdvisorConfig::from_config(*cfg);
  ASSERT_TRUE(advisor_cfg.has_value()) << advisor_cfg.error();
  EXPECT_EQ(advisor_cfg->footprint_mode, FootprintMode::kMaxSize);
  ASSERT_EQ(advisor_cfg->tiers.size(), 2u);
  EXPECT_EQ(advisor_cfg->tiers[0].name, "dram");
  EXPECT_DOUBLE_EQ(advisor_cfg->tiers[0].store_coef, 0.125);
  EXPECT_EQ(advisor_cfg->fallback_tier().name, "pmem");
}

TEST(AdvisorConfig, RoundTripsThroughText) {
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(12ull << 30, 0.125);
  const auto parsed_file = Config::parse(cfg.to_config_text());
  ASSERT_TRUE(parsed_file.has_value());
  const auto reparsed = AdvisorConfig::from_config(*parsed_file);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(reparsed->tiers[0].limit, cfg.tiers[0].limit);
  EXPECT_DOUBLE_EQ(reparsed->tiers[1].store_coef, 0.125);
  EXPECT_EQ(reparsed->footprint_mode, cfg.footprint_mode);
}

TEST(AdvisorConfig, ValidationErrors) {
  const auto no_memory = Config::parse("[advisor]\n");
  EXPECT_FALSE(AdvisorConfig::from_config(*no_memory).has_value());

  const auto no_fallback = Config::parse("[memory]\nname = dram\nlimit = 1GB\n");
  EXPECT_FALSE(AdvisorConfig::from_config(*no_fallback).has_value());

  const auto dup = Config::parse(
      "[memory]\nname = a\nlimit = 1GB\nfallback = true\n[memory]\nname = a\nlimit = 1GB\n");
  EXPECT_FALSE(AdvisorConfig::from_config(*dup).has_value());

  const auto bad_mode = Config::parse(
      "[advisor]\nfootprint = nonsense\n[memory]\nname = a\nlimit = 1GB\nfallback = true\n");
  EXPECT_FALSE(AdvisorConfig::from_config(*bad_mode).has_value());
}

TEST(SiteFootprint, ModesDiffer) {
  auto s = make_site(0, 100, 1.0);
  s.peak_live_bytes = 500;
  EXPECT_EQ(site_footprint(s, FootprintMode::kMaxSize), 100u);
  EXPECT_EQ(site_footprint(s, FootprintMode::kPeakLive), 500u);
}

TEST(Knapsack, DensestObjectsFillFastTierFirst) {
  // Three objects of equal size; misses 30 > 20 > 10. DRAM fits two.
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 1000, 10.0), make_site(1, 1000, 30.0), make_site(2, 1000, 20.0)};
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(2000, 0.0, 1ull << 40);
  const auto placement = place_by_density(sites, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->tier_of(1), "dram");
  EXPECT_EQ(placement->tier_of(2), "dram");
  EXPECT_EQ(placement->tier_of(0), "pmem");
}

TEST(Knapsack, DensityIsPerByte) {
  // A small object with few misses can beat a big object with more.
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 100, 50.0),    // density 0.5
      make_site(1, 10000, 100.0)  // density 0.01
  };
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(100, 0.0, 1ull << 40);
  const auto placement = place_by_density(sites, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->tier_of(0), "dram");
  EXPECT_EQ(placement->tier_of(1), "pmem");
}

TEST(Knapsack, StoreCoefficientChangesRanking) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 1000, 20.0, 0.0),    // load heavy
      make_site(1, 1000, 1.0, 400.0),   // store heavy
  };
  AdvisorConfig loads_only = AdvisorConfig::dram_pmem(1000, 0.0, 1ull << 40);
  AdvisorConfig with_stores = AdvisorConfig::dram_pmem(1000, 0.125, 1ull << 40);

  const auto p1 = place_by_density(sites, loads_only);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tier_of(0), "dram");
  EXPECT_EQ(p1->tier_of(1), "pmem");

  const auto p2 = place_by_density(sites, with_stores);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tier_of(0), "pmem");
  EXPECT_EQ(p2->tier_of(1), "dram");  // 1 + 0.125*400 = 51 > 20
}

TEST(Knapsack, NeverExceedsTierLimit) {
  std::vector<analyzer::SiteRecord> sites;
  for (trace::StackId i = 0; i < 20; ++i) {
    sites.push_back(make_site(i, 700, 100.0 - i));
  }
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(2000, 0.0, 1ull << 40);
  const auto placement = place_by_density(sites, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_LE(placement->footprint_in("dram"), 2000u);
  // Everything is accounted for somewhere.
  EXPECT_EQ(placement->decisions.size(), sites.size());
}

TEST(Knapsack, CapacityCheckDoesNotWrap) {
  // A footprint near 2^64 (an alloc size read from a trace) must not
  // wrap the capacity check: it does not fit a 1 GiB tier.
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 4096, 100.0),
      make_site(1, ~Bytes{0}, 100.0),
  };
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(1ull << 30, 0.0, 1ull << 40);
  const auto placement = place_by_density(sites, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->tier_of(0), "dram");
  EXPECT_EQ(placement->tier_of(1), "pmem");
  EXPECT_EQ(placement->footprint_in("dram"), 4096u);
}

TEST(Knapsack, ZeroMissObjectsGoToFallback) {
  const std::vector<analyzer::SiteRecord> sites = {make_site(0, 100, 0.0)};
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0, 1ull << 40);
  const auto placement = place_by_density(sites, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->tier_of(0), "pmem");
}

TEST(Knapsack, UnlistedStackFallsBack) {
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0, 1ull << 40);
  const auto placement = place_by_density({}, cfg);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->tier_of(12345), "pmem");
}

TEST(Report, BomWriteAndHeaderFields) {
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);

  Placement placement;
  placement.fallback_tier = "pmem";
  PlacementDecision d;
  d.callstack = bom::CallStack{{{0, 0x100}}};
  d.tier = "dram";
  d.footprint = 4096;
  placement.decisions.push_back(d);

  const auto text = report_to_string(placement, ReportFormat::kBom, modules);
  ASSERT_TRUE(text.has_value());
  EXPECT_NE(text->find("# format = bom"), std::string::npos);
  EXPECT_NE(text->find("# fallback = pmem"), std::string::npos);
  EXPECT_NE(text->find("app.x!0x100 @ dram # size=4096"), std::string::npos);
}

TEST(Report, HumanReadableRequiresSymbols) {
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);
  Placement placement;
  placement.fallback_tier = "pmem";
  PlacementDecision d;
  d.callstack = bom::CallStack{{{0, 0x100}}};
  d.tier = "dram";
  placement.decisions.push_back(d);

  EXPECT_FALSE(report_to_string(placement, ReportFormat::kHumanReadable, modules).has_value());

  bom::SymbolTable symbols(&modules);
  symbols.add_entry(0, {0x0, "main.cc", 1});
  const auto text =
      report_to_string(placement, ReportFormat::kHumanReadable, modules, &symbols);
  ASSERT_TRUE(text.has_value()) << text.error();
  EXPECT_NE(text->find("main.cc:1 @ dram"), std::string::npos);
}

/// Property sweep over DRAM limits: larger budgets never shrink the set
/// of sites in DRAM (greedy monotonicity on identical value ordering).
class LimitSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(LimitSweep, MonotoneDramMembership) {
  std::vector<analyzer::SiteRecord> sites;
  for (trace::StackId i = 0; i < 12; ++i) {
    sites.push_back(make_site(i, 512 + i * 64, 200.0 - static_cast<double>(i) * 7.0));
  }
  AdvisorConfig small = AdvisorConfig::dram_pmem(GetParam(), 0.0, 1ull << 40);
  AdvisorConfig big = AdvisorConfig::dram_pmem(GetParam() * 2, 0.0, 1ull << 40);
  const auto p_small = place_by_density(sites, small);
  const auto p_big = place_by_density(sites, big);
  ASSERT_TRUE(p_small.has_value());
  ASSERT_TRUE(p_big.has_value());
  for (const auto& s : sites) {
    if (p_small->tier_of(s.stack) == "dram") {
      EXPECT_EQ(p_big->tier_of(s.stack), "dram") << "site " << s.stack;
    }
  }
  EXPECT_LE(p_small->footprint_in("dram"), GetParam());
  EXPECT_LE(p_big->footprint_in("dram"), GetParam() * 2);
}

INSTANTIATE_TEST_SUITE_P(Limits, LimitSweep,
                         ::testing::Values(Bytes{1024}, Bytes{2048}, Bytes{4096}, Bytes{8192}));

}  // namespace
}  // namespace ecohmem::advisor
