// The paper's headline results as regression tests, at full model length
// (the same runs the benchmarks print). Each assertion encodes a row of
// EXPERIMENTS.md with a tolerance band, so that any future change to the
// engine, the algorithms or the workload models that breaks a reproduced
// shape fails CI rather than silently drifting.

#include <gtest/gtest.h>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/baselines/kernel_tiering.hpp"
#include "ecohmem/core/ecohmem.hpp"

namespace ecohmem::core {
namespace {

constexpr Bytes GiB = 1024ull * 1024 * 1024;

double speedup(const std::string& app, Bytes dram, double store_coef, bool bw) {
  const auto sys = *memsim::paper_system(6);
  WorkflowOptions opt;
  opt.dram_limit = dram;
  opt.store_coef = store_coef;
  opt.bandwidth_aware = bw;
  const auto result = run_workflow(apps::make_app(app), sys, opt);
  EXPECT_TRUE(result.has_value());
  return result ? result->speedup() : 0.0;
}

TEST(PaperShapes, Fig6_MiniFeLargeAndDramInsensitive) {
  // Paper: 2.22x, "significant performance improvement even when
  // reducing our DRAM limit to 4 GB".
  const double at12 = speedup("minife", 12 * GiB, 0.0, false);
  const double at4 = speedup("minife", 4 * GiB, 0.0, false);
  EXPECT_GT(at12, 1.8);
  EXPECT_GT(at4, 1.7);
  EXPECT_GT(at4, at12 * 0.85);
}

TEST(PaperShapes, Fig6_HpcgLarge) {
  EXPECT_GT(speedup("hpcg", 12 * GiB, 0.0, false), 1.55);  // paper 1.67
  EXPECT_GT(speedup("hpcg", 4 * GiB, 0.0, false), 1.3);
}

TEST(PaperShapes, Fig6_SmallWinsForMiniMdAndLulesh) {
  const double minimd = speedup("minimd", 12 * GiB, 0.0, false);
  EXPECT_GT(minimd, 1.02);  // paper 1.08
  EXPECT_LT(minimd, 1.25);
  const double lulesh = speedup("lulesh", 12 * GiB, 0.0, false);
  EXPECT_GT(lulesh, 0.98);  // paper 1.07
  EXPECT_LT(lulesh, 1.15);
}

TEST(PaperShapes, Fig6_CloverleafStoresMatter) {
  // Paper: +19% at 12 GB from the store channel; 10% slowdown at 4 GB.
  const double loads = speedup("cloverleaf3d", 12 * GiB, 0.0, false);
  const double stores = speedup("cloverleaf3d", 12 * GiB, 0.125, false);
  EXPECT_GT(loads, 1.15);           // paper 1.39
  EXPECT_GT(stores, loads * 1.08);  // the §VIII-A effect
  EXPECT_LT(speedup("cloverleaf3d", 4 * GiB, 0.0, false), 1.02);
}

TEST(PaperShapes, TableVIII_OpenFoamBaseFailsBwAwareRecovers) {
  const double base = speedup("openfoam", 11 * GiB, 0.0, false);
  const double bw = speedup("openfoam", 11 * GiB, 0.0, true);
  EXPECT_LT(base, 0.75);  // paper 0.50
  EXPECT_GT(bw, 1.0);     // paper 1.061
  EXPECT_LT(bw, 1.3);
}

TEST(PaperShapes, TableVIII_LammpsNearNeutral) {
  const double base = speedup("lammps", 14 * GiB, 0.0, false);
  const double bw = speedup("lammps", 16 * GiB, 0.0, true);
  EXPECT_GT(base, 0.93);  // paper ~0.96-0.99
  EXPECT_LT(base, 1.03);
  EXPECT_GT(bw, 0.93);
  EXPECT_LT(bw, 1.04);
}

TEST(PaperShapes, TableVIII_LuleshBandwidthAwareGain) {
  const double base = speedup("lulesh", 12 * GiB, 0.0, false);
  const double bw = speedup("lulesh", 12 * GiB, 0.0, true);
  EXPECT_GT(bw, base * 1.08);  // paper: 1.07 -> 1.19
}

TEST(PaperShapes, TableVI_BoundednessOrdering) {
  const auto sys = *memsim::paper_system(6);
  const auto lammps = run_memory_mode(apps::make_lammps(), sys);
  const auto minife = run_memory_mode(apps::make_minife(), sys);
  const auto clover = run_memory_mode(apps::make_cloverleaf3d(), sys);
  ASSERT_TRUE(lammps && minife && clover);
  EXPECT_LT(lammps->memory_bound_fraction(), 0.35);
  EXPECT_GT(minife->memory_bound_fraction(), 0.85);
  EXPECT_GT(clover->memory_bound_fraction(), 0.85);
  // MiniFE's hit ratio is the lowest of the five (headroom).
  const auto minimd = run_memory_mode(apps::make_minimd(), sys);
  ASSERT_TRUE(minimd.has_value());
  EXPECT_LT(minife->dram_cache_hit_ratio, minimd->dram_cache_hit_ratio);
}

TEST(PaperShapes, Fig6_KernelTieringBetweenBaselineAndEcoHmem) {
  const auto sys = *memsim::paper_system(6);
  for (const std::string app : {"minife", "hpcg"}) {
    const runtime::Workload w = apps::make_app(app);
    const auto baseline = run_memory_mode(w, sys);
    ASSERT_TRUE(baseline.has_value());
    baselines::KernelTieringMode tiering(&sys, 0, sys.fallback_index());
    runtime::ExecutionEngine engine(&sys, {});
    const auto tier_run = engine.run(w, tiering);
    ASSERT_TRUE(tier_run.has_value());
    const double tier_speedup = tier_run->speedup_over(*baseline);
    EXPECT_GT(tier_speedup, 1.05) << app;  // beats memory mode...
    EXPECT_LT(tier_speedup, speedup(app, 12 * GiB, 0.0, false)) << app;  // ...not ecoHMEM
  }
}

TEST(PaperShapes, Fig7_BandwidthAwareCutsPmemPeak) {
  const auto sys = *memsim::paper_system(6);
  const runtime::Workload w = apps::make_lulesh();
  WorkflowOptions base_opt;
  base_opt.dram_limit = 12 * GiB;
  WorkflowOptions bw_opt = base_opt;
  bw_opt.bandwidth_aware = true;
  const auto base = run_workflow(w, sys, base_opt);
  const auto bw = run_workflow(w, sys, bw_opt);
  ASSERT_TRUE(base && bw);

  auto peak = [&sys](const runtime::RunMetrics& m) {
    return m.bandwidth.peak_gbs(sys.fallback_index());
  };
  EXPECT_LT(peak(bw->production_metrics), peak(base->production_metrics) * 0.8);
}

TEST(PaperShapes, Fig6_Pmem2DegradesAbsolutePerformance) {
  const auto sys6 = *memsim::paper_system(6);
  const auto sys2 = *memsim::paper_system(2);
  for (const std::string app : {"minife", "hpcg"}) {
    const runtime::Workload w = apps::make_app(app);
    WorkflowOptions opt;
    opt.dram_limit = 12 * GiB;
    const auto r6 = run_workflow(w, sys6, opt);
    const auto r2 = run_workflow(w, sys2, opt);
    ASSERT_TRUE(r6 && r2);
    EXPECT_GT(r2->production_metrics.total_ns, r6->production_metrics.total_ns) << app;
    EXPECT_GT(r2->speedup(), 1.0) << app;  // still above memory mode (paper)
  }
}

}  // namespace
}  // namespace ecohmem::core
