// AppOptions semantics across all models: `scale` shrinks footprints and
// traffic proportionally, `iterations` was covered in test_apps; plus the
// 2nd-generation PMem spec and the analyzer's no-uncore fallback path.

#include <gtest/gtest.h>

#include <algorithm>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/profiler/profiler.hpp"

namespace ecohmem {
namespace {

class ScaleSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ScaleSweep, HalfScaleHalvesFootprint) {
  apps::AppOptions full;
  full.iterations = 2;
  apps::AppOptions half = full;
  half.scale = 0.5;
  const auto w_full = apps::make_app(GetParam(), full);
  const auto w_half = apps::make_app(GetParam(), half);
  const double ratio = static_cast<double>(w_half.heap_high_water) /
                       static_cast<double>(w_full.heap_high_water);
  EXPECT_NEAR(ratio, 0.5, 0.05) << GetParam();
}

TEST_P(ScaleSweep, ScaledModelStillRuns) {
  apps::AppOptions opt;
  opt.iterations = 2;
  opt.scale = 0.25;
  const auto sys = *memsim::paper_system(6);
  const auto metrics = core::run_memory_mode(apps::make_app(GetParam(), opt), sys);
  ASSERT_TRUE(metrics.has_value()) << metrics.error();
  EXPECT_GT(metrics->total_ns, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ScaleSweep, ::testing::ValuesIn(apps::app_names()),
                         [](const auto& param_info) {
                           // gtest test names reject '-' ("phase-shift").
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Pmem200, FortyPercentMoreBandwidth) {
  const auto gen1 = memsim::optane_pmem_spec(6);
  const auto gen2 = memsim::optane_pmem200_spec(6);
  EXPECT_NEAR(gen2.peak_read_gbs, gen1.peak_read_gbs * 1.4, 1e-9);
  EXPECT_NEAR(gen2.peak_write_gbs, gen1.peak_write_gbs * 1.4, 1e-9);
  EXPECT_LT(gen2.idle_read_ns, gen1.idle_read_ns);
  EXPECT_EQ(gen2.capacity, gen1.capacity);
}

TEST(Pmem200, LiftsMemoryModeBaseline) {
  const auto gen1 = *memsim::paper_system(6);
  const auto gen2 = *memsim::MemorySystem::create(
      {memsim::ddr4_dram_spec(), memsim::optane_pmem200_spec(6)});
  apps::AppOptions opt;
  opt.iterations = 4;
  const auto w = apps::make_minife(opt);
  const auto m1 = core::run_memory_mode(w, gen1);
  const auto m2 = core::run_memory_mode(w, gen2);
  ASSERT_TRUE(m1 && m2);
  EXPECT_LT(m2->total_ns, m1->total_ns);
}

TEST(AnalyzerFallback, BandwidthTimelineFromSamplesWhenNoUncore) {
  // Traces captured with uncore sampling disabled must still yield a
  // bandwidth timeline (reconstructed from PEBS sample weights).
  const auto sys = *memsim::paper_system(6);
  apps::AppOptions app_opt;
  app_opt.iterations = 3;
  const auto w = apps::make_minife(app_opt);

  profiler::ProfilerOptions popt;
  popt.sample_uncore = false;
  profiler::Profiler prof(popt);
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&sys, eopt);
  runtime::FixedTierMode mode(&sys, 1);
  ASSERT_TRUE(engine.run(w, mode).has_value());

  const auto analysis = analyzer::analyze(prof.take_trace());
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  EXPECT_GT(analysis->observed_peak_bw_gbs, 0.0);
}

}  // namespace
}  // namespace ecohmem
