// Property tests over randomized workloads: whatever the (seeded) shape,
// the whole pipeline must hold its invariants — build validity, workflow
// success, budget compliance, allocation conservation, and the safety of
// every execution mode.

#include "ecohmem/apps/synthetic.hpp"

#include <gtest/gtest.h>

#include "ecohmem/baselines/kernel_tiering.hpp"
#include "ecohmem/core/ecohmem.hpp"

namespace ecohmem::apps {
namespace {

class SyntheticSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SyntheticSpec spec() const {
    SyntheticSpec s;
    s.seed = GetParam();
    s.phases = 4;
    return s;
  }
};

TEST_P(SyntheticSweep, BuildsValidWorkload) {
  const runtime::Workload w = make_synthetic(spec());
  EXPECT_GT(w.heap_high_water, 0u);
  EXPECT_EQ(w.objects.size(),
            static_cast<std::size_t>(spec().persistent_objects + spec().transient_sites));
}

TEST_P(SyntheticSweep, WorkflowSucceedsAndRespectsBudget) {
  const runtime::Workload w = make_synthetic(spec());
  const auto sys = *memsim::paper_system(6);
  core::WorkflowOptions opt;
  opt.dram_limit = 8ull << 30;
  opt.bandwidth_aware = GetParam() % 2 == 0;  // alternate algorithms
  const auto result = core::run_workflow(w, sys, opt);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_GT(result->production_metrics.total_ns, 0u);
  EXPECT_LE(result->placement.footprint_in("dram"), opt.dram_limit);
  // Every profiled site got a decision.
  EXPECT_EQ(result->placement.decisions.size(), result->analysis.sites.size());
}

TEST_P(SyntheticSweep, AllModesReplayWithoutError) {
  const runtime::Workload w = make_synthetic(spec());
  const auto sys = *memsim::paper_system(6);
  runtime::ExecutionEngine engine(&sys, {});

  runtime::FixedTierMode pmem(&sys, 1);
  EXPECT_TRUE(engine.run(w, pmem).has_value());

  baselines::KernelTieringMode tiering(&sys, 0, 1);
  EXPECT_TRUE(engine.run(w, tiering).has_value());

  auto memmode = core::run_memory_mode(w, sys);
  EXPECT_TRUE(memmode.has_value());
}

TEST_P(SyntheticSweep, SpeedupWithinPhysicalBounds) {
  // The placed run can never beat all-DRAM or lose to all-PMem by more
  // than the interposition overhead.
  const runtime::Workload w = make_synthetic(spec());
  const auto sys = *memsim::paper_system(6);
  runtime::ExecutionEngine engine(&sys, {});
  runtime::FixedTierMode dram(&sys, 0);
  runtime::FixedTierMode pmem(&sys, 1);
  const auto t_dram = engine.run(w, dram);
  const auto t_pmem = engine.run(w, pmem);
  ASSERT_TRUE(t_dram && t_pmem);

  core::WorkflowOptions opt;
  opt.dram_limit = 12ull << 30;
  const auto result = core::run_workflow(w, sys, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(static_cast<double>(result->production_metrics.total_ns),
            static_cast<double>(t_dram->total_ns) * 0.98);
  EXPECT_LE(static_cast<double>(result->production_metrics.total_ns),
            static_cast<double>(t_pmem->total_ns) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace ecohmem::apps
