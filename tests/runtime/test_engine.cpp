#include "ecohmem/runtime/engine.hpp"

#include <gtest/gtest.h>

#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/dram_cache.hpp"

namespace ecohmem::runtime {
namespace {

memsim::MemorySystem paper() { return *memsim::paper_system(6); }

/// One-object streaming workload: `loads` line requests per kernel,
/// repeated `iters` times.
Workload stream_workload(double loads, double stores, double pe, int iters,
                         Bytes size = 1ull << 30) {
  WorkloadBuilder b("stream");
  const auto mod = b.add_module("s.x", 1 << 20, 0);
  const auto site = b.add_site(mod, "buf", "s.cc", 1);
  const auto obj = b.add_object(site, size, AccessPattern::kSequential, 0.0, 0.6, pe);
  const auto k = b.add_kernel("sweep", 1e8, 1e7,
                              {KernelAccess{obj, loads, stores, static_cast<double>(size)}});
  b.alloc(obj);
  for (int i = 0; i < iters; ++i) b.run_kernel(k);
  b.free(obj);
  return b.build();
}

// ------------------------------------------------- fixed-point solver

std::vector<ObjectTraffic> one_object_traffic(std::size_t tiers, std::size_t tier,
                                              double read_bytes, double write_bytes) {
  ObjectTraffic t;
  t.read_bytes.assign(tiers, 0.0);
  t.write_bytes.assign(tiers, 0.0);
  t.latency_share.assign(tiers, 0.0);
  t.read_bytes[tier] = read_bytes;
  t.write_bytes[tier] = write_bytes;
  t.latency_share[tier] = 1.0;
  return {t};
}

TEST(FixedPoint, ComputeOnlyKernel) {
  const auto sys = paper();
  const auto sol = solve_kernel_fixed_point(sys, {}, {}, 1000.0, 8.0, {});
  EXPECT_NEAR(sol.duration_ns, 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(sol.load_stall_ns, 0.0);
}

TEST(FixedPoint, BandwidthFloorBindsForPureStreams) {
  const auto sys = paper();
  // 26 GB moved on PMem: at ~26 GB/s peak the kernel cannot beat ~1 s.
  const double bytes = 26e9;
  const auto traffic = one_object_traffic(2, 1, bytes, 0.0);
  const std::vector<memsim::KernelObjectMisses> misses = {{0.0, bytes / 64.0, 0.0}};
  const auto sol = solve_kernel_fixed_point(sys, traffic, misses, 1000.0, 8.0, {});
  EXPECT_GE(sol.duration_ns, 0.95e9);
  EXPECT_GT(sol.bw_floor_ns, 0.9e9);
}

TEST(FixedPoint, DemandMissesStallByLatencyOverMlp) {
  const auto sys = paper();
  const double misses = 1e6;
  const auto traffic = one_object_traffic(2, 1, misses * 64.0, 0.0);
  const std::vector<memsim::KernelObjectMisses> m = {{misses, 0.0, 0.0}};
  const auto sol = solve_kernel_fixed_point(sys, traffic, m, 0.0, 8.0, {});
  // Stall >= misses * idle latency / mlp.
  EXPECT_GE(sol.load_stall_ns, misses * 185.0 / 8.0 * 0.99);
  EXPECT_GT(sol.object_load_latency_ns[0], 180.0);
}

TEST(FixedPoint, HigherMlpShortensStalls) {
  const auto sys = paper();
  const double misses = 1e6;
  const auto traffic = one_object_traffic(2, 1, misses * 64.0, 0.0);
  const std::vector<memsim::KernelObjectMisses> m = {{misses, 0.0, 0.0}};
  const auto lo = solve_kernel_fixed_point(sys, traffic, m, 0.0, 2.0, {});
  const auto hi = solve_kernel_fixed_point(sys, traffic, m, 0.0, 16.0, {});
  EXPECT_GT(lo.duration_ns, hi.duration_ns);
}

TEST(FixedPoint, DramFasterThanPmemForSameTraffic) {
  const auto sys = paper();
  const double misses = 5e6;
  const std::vector<memsim::KernelObjectMisses> m = {{misses, 0.0, 0.0}};
  const auto dram =
      solve_kernel_fixed_point(sys, one_object_traffic(2, 0, misses * 64, 0.0), m, 0.0, 8.0, {});
  const auto pmem =
      solve_kernel_fixed_point(sys, one_object_traffic(2, 1, misses * 64, 0.0), m, 0.0, 8.0, {});
  EXPECT_LT(dram.duration_ns, pmem.duration_ns);
}

TEST(FixedPoint, Converges) {
  const auto sys = paper();
  const double misses = 2e7;
  const auto traffic = one_object_traffic(2, 1, misses * 64.0, misses * 16.0);
  const std::vector<memsim::KernelObjectMisses> m = {{misses, 0.0, misses / 4.0}};
  EngineOptions opt;
  const auto sol = solve_kernel_fixed_point(sys, traffic, m, 1e6, 8.0, opt);
  EXPECT_LT(sol.iterations, opt.max_fixed_point_iters);
  EXPECT_GT(sol.duration_ns, 0.0);
}

// ----------------------------------------------------------- engine

TEST(Engine, FixedTierRunProducesMetrics) {
  const auto sys = paper();
  const Workload w = stream_workload(1e7, 1e6, 0.0, 3);
  FixedTierMode mode(&sys, 1);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(w, mode);
  ASSERT_TRUE(metrics.has_value()) << metrics.error();
  EXPECT_GT(metrics->total_ns, 0u);
  EXPECT_EQ(metrics->allocations, 1u);
  EXPECT_GT(metrics->total_load_misses, 0.0);
  ASSERT_EQ(metrics->functions.size(), 1u);
  EXPECT_EQ(metrics->functions[0].function, "sweep");
  EXPECT_GT(metrics->functions[0].ipc(), 0.0);
}

TEST(Engine, AllDramBeatsAllPmem) {
  const auto sys = paper();
  const Workload w = stream_workload(2e7, 0.0, 0.0, 5);
  ExecutionEngine engine(&sys, {});
  FixedTierMode dram(&sys, 0);
  FixedTierMode pmem(&sys, 1);
  const auto fast = engine.run(w, dram);
  const auto slow = engine.run(w, pmem);
  ASSERT_TRUE(fast && slow);
  EXPECT_GT(slow->total_ns, fast->total_ns);
  EXPECT_GT(fast->speedup_over(*slow), 1.3);
}

TEST(Engine, MemoryModeBetweenDramAndPmem) {
  const auto sys = paper();
  const Workload w = stream_workload(2e7, 0.0, 0.0, 5);
  ExecutionEngine engine(&sys, {});
  FixedTierMode dram(&sys, 0);
  FixedTierMode pmem(&sys, 1);
  MemoryModeExec mm(&sys, 0, 1, memsim::DramCacheModel(sys.tier(0).capacity()));
  const auto t_dram = engine.run(w, dram);
  const auto t_pmem = engine.run(w, pmem);
  const auto t_mm = engine.run(w, mm);
  ASSERT_TRUE(t_dram && t_pmem && t_mm);
  EXPECT_GE(t_mm->total_ns, t_dram->total_ns);
  EXPECT_LE(t_mm->total_ns, static_cast<Ns>(static_cast<double>(t_pmem->total_ns) * 1.6));
  EXPECT_GT(t_mm->dram_cache_hit_ratio, 0.0);
}

TEST(Engine, TierTrafficAccountedToCorrectTier) {
  const auto sys = paper();
  const Workload w = stream_workload(1e7, 0.0, 0.0, 2);
  FixedTierMode pmem(&sys, 1);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(w, pmem);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_DOUBLE_EQ(metrics->tier_traffic[0].read_bytes, 0.0);
  EXPECT_GT(metrics->tier_traffic[1].read_bytes, 1e7 * 64.0 * 0.9);
}

TEST(Engine, BandwidthTimelineCoversRun) {
  const auto sys = paper();
  const Workload w = stream_workload(2e7, 0.0, 0.0, 4);
  FixedTierMode pmem(&sys, 1);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(w, pmem);
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->bandwidth.tier_count(), 2u);
  EXPECT_FALSE(metrics->bandwidth.series(1).empty());
  const double peak = metrics->bandwidth.peak_gbs(1);
  EXPECT_GT(peak, 1.0);
  EXPECT_LT(peak, sys.tier(1).spec().peak_read_gbs * 1.1);
}

TEST(Engine, PrefetchReducesRuntimeOfStreams) {
  const auto sys = paper();
  ExecutionEngine engine(&sys, {});
  FixedTierMode pmem_a(&sys, 1);
  FixedTierMode pmem_b(&sys, 1);
  const auto no_pf = engine.run(stream_workload(2e7, 0.0, 0.0, 3), pmem_a);
  const auto with_pf = engine.run(stream_workload(2e7, 0.0, 0.9, 3), pmem_b);
  ASSERT_TRUE(no_pf && with_pf);
  EXPECT_LT(with_pf->total_ns, no_pf->total_ns);
  EXPECT_LT(with_pf->total_load_misses, no_pf->total_load_misses * 0.2);
}

TEST(Engine, AppDirectThroughFlexMalloc) {
  const auto sys = paper();
  const Workload w = stream_workload(1e7, 0.0, 0.0, 2);

  flexmalloc::ParsedReport report;
  report.fallback_tier = "pmem";
  report.is_bom = true;
  report.entries.push_back(
      flexmalloc::ReportEntry{w.sites[0].stack, "dram", 0});
  auto fm = flexmalloc::FlexMalloc::create(
      {{"dram", sys.tier(0).capacity()}, {"pmem", sys.tier(1).capacity()}}, report, nullptr);
  ASSERT_TRUE(fm.has_value()) << fm.error();

  AppDirectMode mode(&sys, &*fm);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(w, mode);
  ASSERT_TRUE(metrics.has_value()) << metrics.error();
  // The single object matched to DRAM: all traffic on tier 0.
  EXPECT_GT(metrics->tier_traffic[0].read_bytes, 0.0);
  EXPECT_DOUBLE_EQ(metrics->tier_traffic[1].read_bytes, 0.0);
  EXPECT_EQ(mode.tier_of(0).value(), 0u);
  EXPECT_GT(metrics->alloc_overhead_ns, 0.0);
}

TEST(Engine, MemoryBoundFractionInUnitRange) {
  const auto sys = paper();
  const Workload w = stream_workload(3e7, 3e6, 0.3, 3);
  FixedTierMode pmem(&sys, 1);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(w, pmem);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_GE(metrics->memory_bound_fraction(), 0.0);
  EXPECT_LE(metrics->memory_bound_fraction(), 1.0);
}

}  // namespace
}  // namespace ecohmem::runtime
