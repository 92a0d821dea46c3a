// Engine-level acceptance tests of the online placement subsystem
// (docs/online.md): the policy must beat a frozen static placement on
// the phase-shifting workload, must never thrash steady-state apps
// beyond the hysteresis margin, must be bit-reproducible, and must
// cancel moves whose object was realloc'd or freed before application.

#include <gtest/gtest.h>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/apps/synthetic.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/guidance.hpp"

namespace ecohmem {
namespace {

constexpr Bytes kDramLimit = 12ull << 30;

/// Scheduled moves are either applied or cancelled, never lost.
void expect_migration_conservation(const runtime::RunMetrics& m) {
  EXPECT_EQ(m.migrations_scheduled, m.migrations + m.migrations_cancelled);
  EXPECT_EQ(m.migrations, m.migration_events.size());
}

/// Static production run + an online rerun of the same frozen placement.
struct StaticVsOnline {
  runtime::RunMetrics static_run;
  runtime::RunMetrics online_run;
};

StaticVsOnline run_static_vs_online(const runtime::Workload& workload,
                                    const online::OnlinePolicyConfig& policy,
                                    bool bandwidth_aware = false) {
  const auto system = *memsim::paper_system(6);
  core::WorkflowOptions options;
  options.bandwidth_aware = bandwidth_aware;
  const auto workflow = core::run_workflow(workload, system, options);
  EXPECT_TRUE(workflow.has_value()) << workflow.error();

  runtime::EngineOptions online_options;
  online_options.online_policy = &policy;
  const auto online = core::run_with_placement(workload, system, workflow->placement,
                                               kDramLimit, advisor::ReportFormat::kBom,
                                               online_options);
  EXPECT_TRUE(online.has_value()) << online.error();
  return {workflow->production_metrics, *online};
}

TEST(OnlineEngine, BeatsStaticPlacementOnPhaseShift) {
  const online::OnlinePolicyConfig policy;  // defaults = configs/online_policy.ini
  const auto r = run_static_vs_online(apps::make_phase_shift(), policy);

  // The rotating hot set defeats any frozen placement; following it
  // online must win even after paying every migration's cost.
  EXPECT_GT(r.online_run.migrations, 0u);
  EXPECT_LT(r.online_run.total_ns, r.static_run.total_ns);
  EXPECT_GT(r.online_run.migration_ns, 0.0);
  expect_migration_conservation(r.online_run);
}

TEST(OnlineEngine, SteadyStateAppNeverRegressesOrThrashes) {
  // minife's hot set never changes. The shield must keep the policy from
  // churning: any move has to be a one-time promotion that pays off —
  // page granularity lets a hot huge object that never whole-fit DRAM
  // headroom claim a prefix of it — never back-and-forth thrash.
  const online::OnlinePolicyConfig policy;
  const auto r = run_static_vs_online(apps::make_app("minife", {}), policy);
  EXPECT_LE(r.online_run.migrations, 2u);
  EXPECT_EQ(r.online_run.migrations_cancelled, 0u);
  EXPECT_LE(r.online_run.total_ns, r.static_run.total_ns);
  expect_migration_conservation(r.online_run);

  // With partial moves disabled the planner is back to the old
  // whole-object calculus, where nothing fits and nothing moves.
  online::OnlinePolicyConfig whole_only = policy;
  whole_only.huge_object_bytes = 0;
  const auto w = run_static_vs_online(apps::make_app("minife", {}), whole_only);
  EXPECT_EQ(w.online_run.migrations, 0u);
  EXPECT_EQ(w.online_run.total_ns, w.static_run.total_ns);
}

TEST(OnlineEngine, BandwidthVaryingAppStaysWithinHysteresisMargin) {
  // openfoam allocates/frees its assembly pool every step and shifts
  // bandwidth demand across the run — the adversarial steady app. The
  // maturity gate and windowed-headroom planning must keep the online
  // run within the configured hysteresis margin of the static one.
  const online::OnlinePolicyConfig policy;
  const auto r =
      run_static_vs_online(apps::make_app("openfoam", {}), policy, /*bandwidth_aware=*/true);
  const double bound =
      static_cast<double>(r.static_run.total_ns) * (1.0 + policy.hysteresis);
  EXPECT_LE(static_cast<double>(r.online_run.total_ns), bound);
  expect_migration_conservation(r.online_run);
}

TEST(OnlineEngine, MigrationSequenceIsDeterministic) {
  const online::OnlinePolicyConfig policy;
  const auto a = run_static_vs_online(apps::make_phase_shift(), policy);
  const auto b = run_static_vs_online(apps::make_phase_shift(), policy);
  ASSERT_GT(a.online_run.migrations, 0u);
  EXPECT_EQ(a.online_run.migration_events, b.online_run.migration_events);
  EXPECT_EQ(a.online_run.total_ns, b.online_run.total_ns);
  EXPECT_EQ(a.online_run.migrations_scheduled, b.online_run.migrations_scheduled);
  EXPECT_EQ(a.online_run.migrations_cancelled, b.online_run.migrations_cancelled);
  EXPECT_EQ(a.online_run.migration_ns, b.online_run.migration_ns);
}

/// Full metric equality between two online runs of the same invocation.
void expect_identical_online(const runtime::RunMetrics& a, const runtime::RunMetrics& b) {
  EXPECT_EQ(a.total_ns, b.total_ns);
  EXPECT_EQ(a.migration_events, b.migration_events);
  EXPECT_EQ(a.migrations_scheduled, b.migrations_scheduled);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrations_partial, b.migrations_partial);
  EXPECT_EQ(a.migrations_cancelled, b.migrations_cancelled);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.migration_ns, b.migration_ns);
  EXPECT_EQ(a.load_stall_ns, b.load_stall_ns);
  EXPECT_EQ(a.store_stall_ns, b.store_stall_ns);
  ASSERT_EQ(a.tier_traffic.size(), b.tier_traffic.size());
  for (std::size_t k = 0; k < a.tier_traffic.size(); ++k) {
    EXPECT_EQ(a.tier_traffic[k].read_bytes, b.tier_traffic[k].read_bytes)
        << "tier " << a.tier_traffic[k].tier;
    EXPECT_EQ(a.tier_traffic[k].write_bytes, b.tier_traffic[k].write_bytes)
        << "tier " << a.tier_traffic[k].tier;
  }
}

/// Online placement and observers stay mutually exclusive.
TEST(OnlineEngine, ObserverIsRejected) {
  class NullObserver final : public runtime::ExecutionObserver {
   public:
    void on_alloc(Ns, std::uint64_t, std::uint64_t, Bytes, const bom::CallStack&) override {}
    void on_free(Ns, std::uint64_t) override {}
    void on_kernel(const runtime::KernelObservation&) override {}
  };

  const auto system = *memsim::paper_system(6);
  const auto workload = apps::make_synthetic({.seed = 9, .phases = 2});
  const auto workflow = core::run_workflow(workload, system);
  ASSERT_TRUE(workflow.has_value());

  const online::OnlinePolicyConfig policy;
  NullObserver observer;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  options.observer = &observer;
  const auto run = core::run_with_placement(workload, system, workflow->placement, kDramLimit,
                                            advisor::ReportFormat::kBom, options);
  ASSERT_FALSE(run.has_value());
  EXPECT_NE(run.error().find("observer"), std::string::npos) << run.error();
}

TEST(OnlineEngine, ModeWithoutMigrationIsRejected) {
  const auto system = *memsim::paper_system(6);
  const auto workload = apps::make_synthetic({.seed = 10, .phases = 2});
  const online::OnlinePolicyConfig policy;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  // Memory mode has no per-object placement to migrate.
  const auto run = core::run_memory_mode(workload, system, options);
  ASSERT_FALSE(run.has_value());
  EXPECT_NE(run.error().find("migration"), std::string::npos);
}

TEST(OnlineEngine, InvalidPolicyIsRejectedUpFront) {
  const auto system = *memsim::paper_system(6);
  const auto workload = apps::make_synthetic({.seed = 11, .phases = 2});
  const auto workflow = core::run_workflow(workload, system);
  ASSERT_TRUE(workflow.has_value());

  online::OnlinePolicyConfig policy;
  policy.sample_rate = 0.0;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  EXPECT_FALSE(core::run_with_placement(workload, system, workflow->placement, kDramLimit,
                                        advisor::ReportFormat::kBom, options)
                   .has_value());
}

/// A workload whose two hot objects are realloc'd / freed right after
/// the kernel that gets them scheduled for promotion: both pending
/// moves must be cancelled (never applied to the wrong incarnation).
runtime::Workload scheduled_then_churned() {
  runtime::WorkloadBuilder b("churn");
  const auto mod = b.add_module("churn.x", 1 << 20, 0);
  const auto site_a = b.add_site(mod, "A", "churn.cc", 1);
  const auto site_b = b.add_site(mod, "B", "churn.cc", 2);
  const Bytes mib64 = 64ull << 20;
  const auto a = b.add_object(site_a, mib64, runtime::AccessPattern::kRandom, 0.2, 0.5, 0.1);
  const auto obj_b =
      b.add_object(site_b, mib64, runtime::AccessPattern::kRandom, 0.2, 0.5, 0.1);

  const double loads = 1e6;
  const auto hot = b.add_kernel("hot", 1e9, 1e8,
                                {runtime::KernelAccess{a, loads, 0.0, 64.0 * (1 << 20)},
                                 runtime::KernelAccess{obj_b, loads, 0.0, 64.0 * (1 << 20)}});
  const auto idle = b.add_kernel("idle", 1e9, 1e8, {});

  b.alloc(a);
  b.alloc(obj_b);
  b.run_kernel(hot);      // both get scheduled for promotion here
  b.realloc(a, mib64 * 2);  // uid changes -> pending move must die
  b.free(obj_b);            // object dies -> pending move must die
  b.run_kernel(idle);       // application point: both moves cancel
  b.free(a);
  return b.build();
}

TEST(OnlineEngine, ReallocAndFreeCancelScheduledMoves) {
  const auto system = *memsim::paper_system(6);
  const auto workload = scheduled_then_churned();

  // Everything starts in PMem; window=1 makes both objects mature after
  // the single hot kernel, and sample_rate=1 removes sampling noise.
  advisor::Placement placement;
  placement.fallback_tier = "pmem";
  online::OnlinePolicyConfig policy;
  policy.sample_rate = 1.0;
  policy.window = 1;
  policy.min_density = 1.0;

  runtime::EngineOptions options;
  options.online_policy = &policy;
  const auto run = core::run_with_placement(workload, system, placement, kDramLimit,
                                            advisor::ReportFormat::kBom, options);
  ASSERT_TRUE(run.has_value()) << run.error();
  // Both original moves must be cancelled by the churn. The realloc'd
  // incarnation may legitimately be re-scheduled afterwards (hotness is
  // tracked per object, not per incarnation) — but that move dies with
  // the final free too, so nothing is ever applied.
  EXPECT_GE(run->migrations_scheduled, 2u);
  EXPECT_EQ(run->migrations_cancelled, run->migrations_scheduled);
  EXPECT_EQ(run->migrations, 0u);
  EXPECT_TRUE(run->migration_events.empty());
  expect_migration_conservation(*run);
}

TEST(OnlineEngine, PartialMovesConserveBytesOnPhaseShift) {
  // phase-shift's grids are several GiB each — far beyond
  // huge_object_bytes — so the planner must promote hot prefixes in
  // chunk-aligned pieces instead of copying whole allocations.
  const online::OnlinePolicyConfig policy;
  const auto r = run_static_vs_online(apps::make_phase_shift(), policy);
  EXPECT_GT(r.online_run.migrations_partial, 0u);
  expect_migration_conservation(r.online_run);

  // The event log is the auditable record: the sum of per-event range
  // lengths (partial or whole) must equal the migrated byte total, every
  // partial event must be chunk-aligned, and at least one partial event
  // must move strictly less than its object's allocation (the point of
  // page granularity).
  Bytes event_bytes = 0;
  std::uint64_t partial_events = 0;
  bool saw_proper_subrange = false;
  for (const auto& e : r.online_run.migration_events) {
    event_bytes += e.bytes;
    if (!e.partial) {
      EXPECT_EQ(e.offset, 0u);
      continue;
    }
    ++partial_events;
    EXPECT_EQ(e.offset % policy.chunk_bytes, 0u);
    EXPECT_GT(e.bytes, 0u);
    if (e.offset > 0 || e.bytes >= policy.huge_object_bytes) saw_proper_subrange = true;
  }
  EXPECT_EQ(event_bytes, r.online_run.migrated_bytes);
  EXPECT_EQ(partial_events, r.online_run.migrations_partial);
  EXPECT_TRUE(saw_proper_subrange);
}

TEST(OnlineEngine, PartialMovesDisabledWhenHugeThresholdIsZero) {
  online::OnlinePolicyConfig policy;
  policy.huge_object_bytes = 0;  // 0 = whole-object moves only
  const auto r = run_static_vs_online(apps::make_phase_shift(), policy);
  EXPECT_EQ(r.online_run.migrations_partial, 0u);
  for (const auto& e : r.online_run.migration_events) {
    EXPECT_FALSE(e.partial);
    EXPECT_EQ(e.offset, 0u);
  }
  expect_migration_conservation(r.online_run);
}

/// Builds the GuidanceSeed the `--from-report` flag would: render the
/// workflow's own report, re-parse it, and match it against the workload.
runtime::GuidanceSeed guidance_from(const runtime::Workload& workload,
                                    const std::string& report_text) {
  const auto report = flexmalloc::parse_report(report_text, *workload.modules);
  EXPECT_TRUE(report.has_value()) << report.error();
  auto seed = runtime::GuidanceSeed::build(workload, *report);
  EXPECT_TRUE(seed.has_value()) << seed.error();
  return std::move(*seed);
}

TEST(OnlineEngine, GuidanceSeedMatchesEverySiteOfItsOwnWorkload) {
  const auto workload = apps::make_phase_shift();
  const auto system = *memsim::paper_system(6);
  const auto workflow = core::run_workflow(workload, system);
  ASSERT_TRUE(workflow.has_value());
  const auto seed = guidance_from(workload, workflow->report_text);
  EXPECT_EQ(seed.matched_sites, workload.sites.size());
  EXPECT_EQ(seed.site_tier.size(), workload.sites.size());
  bool any_fast = false;
  for (std::size_t s = 0; s < workload.sites.size(); ++s) {
    any_fast = any_fast || seed.site_maps_to(s, system.tier(0).name());
  }
  EXPECT_TRUE(any_fast) << "the report places nothing in the fast tier?";
}

/// Static production run at `dram_limit` + the same placement rerun under
/// the online policy seeded from the workflow's own report.
struct StaticVsSeeded {
  runtime::RunMetrics static_run;
  runtime::RunMetrics seeded_run;
};

StaticVsSeeded run_static_vs_seeded(const runtime::Workload& workload, Bytes dram_limit) {
  const auto system = *memsim::paper_system(6);
  core::WorkflowOptions workflow_options;
  workflow_options.dram_limit = dram_limit;
  const auto workflow = core::run_workflow(workload, system, workflow_options);
  EXPECT_TRUE(workflow.has_value()) << workflow.error();
  const auto seed = guidance_from(workload, workflow->report_text);

  const online::OnlinePolicyConfig policy;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  options.guidance = &seed;
  const auto seeded = core::run_with_placement(workload, system, workflow->placement,
                                               dram_limit, advisor::ReportFormat::kBom, options);
  EXPECT_TRUE(seeded.has_value()) << seeded.error();
  return {workflow->production_metrics, *seeded};
}

TEST(OnlineEngine, GuidanceSeededNeverRegressesOnSteadyApps) {
  // Seeding the online policy with the advisor's own report on a steady
  // app must reproduce the static run (the seeds are already placed; the
  // shield keeps everything put) — the "never regresses" half of the
  // --from-report contract.
  for (const char* app : {"minife", "hpcg"}) {
    const auto r = run_static_vs_seeded(apps::make_app(app, {}), kDramLimit);
    EXPECT_LE(r.seeded_run.total_ns, r.static_run.total_ns) << app;
    expect_migration_conservation(r.seeded_run);
  }

  // A workload whose runtime hot objects differ from its profile's: the
  // seeded policy may migrate and pay for it, but must finish within a
  // small factor of the static run (migration never catastrophically
  // regresses the proactive placement).
  const auto skewed =
      run_static_vs_seeded(apps::make_synthetic({.seed = 99, .phases = 6}), 8ull << 30);
  EXPECT_LT(static_cast<double>(skewed.seeded_run.total_ns),
            static_cast<double>(skewed.static_run.total_ns) * 1.25);
  expect_migration_conservation(skewed.seeded_run);
}

TEST(OnlineEngine, GuidanceSeededRunsAreDeterministic) {
  const auto workload = apps::make_phase_shift();
  const auto system = *memsim::paper_system(6);
  const auto workflow = core::run_workflow(workload, system);
  ASSERT_TRUE(workflow.has_value());
  const auto seed = guidance_from(workload, workflow->report_text);

  const online::OnlinePolicyConfig policy;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  options.guidance = &seed;
  const auto first = core::run_with_placement(workload, system, workflow->placement, kDramLimit,
                                              advisor::ReportFormat::kBom, options);
  ASSERT_TRUE(first.has_value()) << first.error();

  // Same invocation twice: bit-identical (the round-trip CI cmp's).
  const auto again = core::run_with_placement(workload, system, workflow->placement, kDramLimit,
                                              advisor::ReportFormat::kBom, options);
  ASSERT_TRUE(again.has_value());
  expect_identical_online(*first, *again);
}

TEST(OnlineEngine, StaticRunIsUnaffectedByPolicyBeingAbsent) {
  // No policy -> zero migration metrics, empty event log.
  const auto system = *memsim::paper_system(6);
  const auto workload = apps::make_synthetic({.seed = 12, .phases = 2});
  const auto workflow = core::run_workflow(workload, system);
  ASSERT_TRUE(workflow.has_value());
  const auto& m = workflow->production_metrics;
  EXPECT_EQ(m.migrations_scheduled, 0u);
  EXPECT_EQ(m.migrations, 0u);
  EXPECT_EQ(m.migrations_cancelled, 0u);
  EXPECT_TRUE(m.migration_events.empty());
}

}  // namespace
}  // namespace ecohmem
