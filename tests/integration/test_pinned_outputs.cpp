// Pinned outputs: fixed runs whose results are compared against values
// recorded from the replay engine and the analyzer. Each run is reduced
// to a few exact counters plus an FNV-1a digest over the bit patterns of
// every floating-point result, so a change that shifts any reported
// number — one ulp of tier traffic, one migration event, one site's
// latency — fails here. Refactors of the engine, the execution modes,
// FlexMalloc, the online subsystem or the analyzer must leave every
// line unchanged; a deliberate model change re-pins the values (the
// failure message prints the new initializer line).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/apps/synthetic.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/guidance.hpp"

namespace ecohmem {
namespace {

/// FNV-1a over 64-bit words; doubles enter by bit pattern.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------- replay

/// The pinned view of one replay's RunMetrics.
struct PinnedRun {
  Ns total_ns = 0;
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t oom_redirects = 0;
  std::uint64_t migration_events = 0;
  std::uint64_t digest = 0;  ///< tier_traffic bits + every migration event

  bool operator==(const PinnedRun&) const = default;
};

PinnedRun pin(const runtime::RunMetrics& m) {
  Digest d;
  for (const auto& t : m.tier_traffic) {
    d.add(t.tier);
    d.add(t.read_bytes);
    d.add(t.write_bytes);
  }
  for (const auto& e : m.migration_events) {
    d.add(static_cast<std::uint64_t>(e.at));
    d.add(static_cast<std::uint64_t>(e.object));
    d.add(static_cast<std::uint64_t>(e.from_tier));
    d.add(static_cast<std::uint64_t>(e.to_tier));
    d.add(static_cast<std::uint64_t>(e.bytes));
    d.add(static_cast<std::uint64_t>(e.offset));
    d.add(static_cast<std::uint64_t>(e.partial ? 1 : 0));
  }
  return PinnedRun{m.total_ns,      m.allocations,
                   m.frees,         m.oom_redirects,
                   m.migration_events.size(), d.value()};
}

std::string initializer(const PinnedRun& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%lldll, %llu, %llu, %llu, %llu, 0x%016llxull}",
                static_cast<long long>(p.total_ns), static_cast<unsigned long long>(p.allocations),
                static_cast<unsigned long long>(p.frees),
                static_cast<unsigned long long>(p.oom_redirects),
                static_cast<unsigned long long>(p.migration_events),
                static_cast<unsigned long long>(p.digest));
  return buf;
}

void expect_pinned(const runtime::RunMetrics& m, const PinnedRun& want, const std::string& run) {
  const PinnedRun got = pin(m);
  EXPECT_EQ(got, want) << run << ": got " << initializer(got) << ", pinned "
                       << initializer(want);
}

memsim::MemorySystem paper() { return *memsim::paper_system(6); }

constexpr Bytes kDramLimit = 12ull << 30;

/// Many objects churned through interleaved alloc/free/realloc bursts
/// between kernels.
runtime::Workload braided_workload(int object_count, int rounds) {
  using runtime::KernelAccess;
  runtime::WorkloadBuilder b("braided");
  const auto mod = b.add_module("braid.x", 1 << 20, 0);
  std::vector<std::size_t> objs;
  std::vector<KernelAccess> accesses;
  for (int i = 0; i < object_count; ++i) {
    const auto site = b.add_site(mod, "site" + std::to_string(i), "braid.cc",
                                 static_cast<std::uint32_t>(10 + i));
    const Bytes size = (Bytes{1} << 20) * static_cast<Bytes>(1 + i % 5);
    objs.push_back(
        b.add_object(site, size, runtime::AccessPattern::kSequential, 0.0, 0.6, 0.5));
    accesses.push_back(KernelAccess{objs.back(), 2e5, 4e4, static_cast<double>(size)});
  }
  const auto kernel = b.add_kernel("sweep", 1e8, 1e7, accesses);

  for (const auto obj : objs) b.alloc(obj);
  for (int r = 0; r < rounds; ++r) {
    b.run_kernel(kernel);
    for (int i = 0; i < object_count; ++i) {
      const auto obj = objs[static_cast<std::size_t>(i)];
      const Bytes size = (Bytes{1} << 20) * static_cast<Bytes>(1 + i % 5);
      if (i % 3 == 0) {
        b.realloc(obj, size + (Bytes{1} << 16) * static_cast<Bytes>(r + 1));
      } else {
        b.free(obj);
        b.alloc(obj);
      }
    }
  }
  b.run_kernel(kernel);
  for (const auto obj : objs) b.free(obj);
  return b.build();
}

/// Batches of small allocations alternate with batches of big ones that
/// oversubscribe a 16 MiB DRAM tier, forcing order-dependent OOM
/// redirects.
runtime::Workload pressured_workload(int rounds) {
  using runtime::KernelAccess;
  runtime::WorkloadBuilder b("pressured");
  const auto mod = b.add_module("pressure.x", 1 << 20, 0);
  std::vector<std::size_t> small_objs;
  std::vector<std::size_t> big_objs;
  std::vector<KernelAccess> accesses;
  for (int i = 0; i < 8; ++i) {
    const auto site = b.add_site(mod, "small" + std::to_string(i), "pressure.cc",
                                 static_cast<std::uint32_t>(10 + i));
    const Bytes size = Bytes{64} << 10;
    small_objs.push_back(
        b.add_object(site, size, runtime::AccessPattern::kSequential, 0.0, 0.6, 0.5));
    accesses.push_back(KernelAccess{small_objs.back(), 1e5, 2e4, static_cast<double>(size)});
  }
  for (int i = 0; i < 4; ++i) {
    const auto site = b.add_site(mod, "big" + std::to_string(i), "pressure.cc",
                                 static_cast<std::uint32_t>(100 + i));
    big_objs.push_back(b.add_object(site, Bytes{8} << 20, runtime::AccessPattern::kSequential,
                                    0.0, 0.6, 0.5));
  }
  const auto kernel = b.add_kernel("sweep", 1e7, 1e6, accesses);

  for (int r = 0; r < rounds; ++r) {
    for (const auto obj : small_objs) b.alloc(obj);
    b.run_kernel(kernel);
    for (const auto obj : big_objs) b.alloc(obj);  // oversubscribes DRAM
    b.run_kernel(kernel);
    for (const auto obj : big_objs) b.free(obj);
    for (const auto obj : small_objs) b.free(obj);
  }
  return b.build();
}

/// Replays `workload` app-direct with every `site_stride`-th site mapped
/// to a DRAM tier of `dram_capacity` bytes.
runtime::RunMetrics replay_app_direct(const runtime::Workload& workload, Bytes dram_capacity,
                                      std::size_t site_stride) {
  const auto system = paper();
  flexmalloc::ParsedReport report;
  report.fallback_tier = "pmem";
  for (std::size_t s = 0; s < workload.sites.size(); s += site_stride) {
    report.entries.push_back(flexmalloc::ReportEntry{workload.sites[s].stack, "dram", 0});
  }
  flexmalloc::MatcherOptions matcher_options;
  matcher_options.match_cache = true;
  auto fm = flexmalloc::FlexMalloc::create({{"dram", dram_capacity}, {"pmem", 256ull << 30}},
                                           report, nullptr, matcher_options);
  EXPECT_TRUE(fm.has_value()) << fm.error();
  runtime::AppDirectMode mode(&system, &*fm);
  runtime::ExecutionEngine engine(&system, {});
  auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value()) << metrics.error();
  return metrics ? std::move(*metrics) : runtime::RunMetrics{};
}

TEST(PinnedOutputs, BraidedWorkload) {
  const auto m = replay_app_direct(braided_workload(23, 6), 64ull << 30, 2);
  expect_pinned(m, {315214403ll, 161, 113, 0, 0, 0xdf3a54479aa72292ull}, "braided");
}

TEST(PinnedOutputs, CapacityPressureWorkload) {
  const auto m = replay_app_direct(pressured_workload(4), Bytes{16} << 20, 1);
  EXPECT_GT(m.oom_redirects, 0u);
  expect_pinned(m, {43839568ll, 48, 48, 12, 0, 0xcae7095fc6e26671ull}, "pressured");
}

TEST(PinnedOutputs, BraidedWorkloadUnderCapacityPressure) {
  const auto m = replay_app_direct(braided_workload(23, 6), Bytes{16} << 20, 2);
  EXPECT_GT(m.oom_redirects, 0u);
  expect_pinned(m, {375473585ll, 161, 113, 48, 0, 0x2276086f3b484dbfull},
                "braided pressured");
}

/// The paper's workflow on one Fig. 6 app: memory-mode profiling run,
/// analysis, advisor report, app-direct production run.
struct PinnedWorkflow {
  const char* app;
  PinnedRun baseline;
  PinnedRun production;
  std::uint64_t report_digest;
};

TEST(PinnedOutputs, Fig6Workflows) {
  const PinnedWorkflow pinned[] = {
      {"minife",
       {390092346102ll, 7, 7, 0, 0, 0xe545211b9b54be66ull},
       {196846118726ll, 7, 7, 0, 0, 0xce6b37d6a6981fa8ull},
       0xa37e3eae1bb8f823ull},
      {"minimd",
       {325660358880ll, 12, 5, 0, 0, 0x5a35df12a467faefull},
       {290980671440ll, 12, 5, 0, 0, 0xa1b34e8b0e77c0dfull},
       0x6e6c7d64bfc7b233ull},
      {"lulesh",
       {220489276195ll, 278, 278, 0, 0, 0x225c8b66bd5a50ccull},
       {212963062703ll, 278, 278, 0, 0, 0x62ea9769ff66b50eull},
       0xf48203b59a734313ull},
      {"hpcg",
       {482722452902ll, 8, 8, 0, 0, 0x008e30ec62dc4903ull},
       {272094676671ll, 8, 8, 0, 0, 0xd4ef9c31c9b3e95aull},
       0xf7e516df2de6c554ull},
      {"cloverleaf3d",
       {212491412555ll, 20, 20, 0, 0, 0x58aebde864f73715ull},
       {167718718063ll, 20, 20, 0, 0, 0x0e3adefdf1e2704dull},
       0xf3e2d9f4a7351e5cull},
  };
  const auto system = paper();
  for (const PinnedWorkflow& p : pinned) {
    const runtime::Workload workload = apps::make_app(p.app);
    core::WorkflowOptions wopt;
    wopt.dram_limit = kDramLimit;
    const auto workflow = core::run_workflow(workload, system, wopt);
    ASSERT_TRUE(workflow.has_value()) << p.app << ": " << workflow.error();
    expect_pinned(workflow->baseline_metrics, p.baseline, std::string(p.app) + " memory mode");
    expect_pinned(workflow->production_metrics, p.production,
                  std::string(p.app) + " app-direct");
    Digest report;
    report.add(workflow->report_text);
    EXPECT_EQ(report.value(), p.report_digest)
        << p.app << " report: got 0x" << std::hex << report.value();
  }
}

/// One online-placement replay of the workflow's frozen placement,
/// optionally seeded from its own advisor report.
runtime::RunMetrics online_run(const runtime::Workload& workload, bool seeded) {
  const auto system = paper();
  const auto workflow = core::run_workflow(workload, system);
  EXPECT_TRUE(workflow.has_value()) << workflow.error();
  if (!workflow) return {};

  const online::OnlinePolicyConfig policy;
  runtime::EngineOptions options;
  options.online_policy = &policy;
  std::optional<runtime::GuidanceSeed> guidance;
  if (seeded) {
    const auto report = flexmalloc::parse_report(workflow->report_text, *workload.modules);
    EXPECT_TRUE(report.has_value()) << report.error();
    auto seed = runtime::GuidanceSeed::build(workload, *report);
    EXPECT_TRUE(seed.has_value()) << seed.error();
    guidance = std::move(*seed);
    options.guidance = &*guidance;
  }
  auto run = core::run_with_placement(workload, system, workflow->placement, kDramLimit,
                                      advisor::ReportFormat::kBom, options);
  EXPECT_TRUE(run.has_value()) << run.error();
  return run ? std::move(*run) : runtime::RunMetrics{};
}

TEST(PinnedOutputs, OnlinePhaseShift) {
  const auto m = online_run(apps::make_phase_shift(), false);
  EXPECT_GT(m.migrations, 0u);
  expect_pinned(m, {426613949939ll, 5, 5, 0, 22, 0x6d5f2e44880e6010ull}, "online phase-shift");
}

TEST(PinnedOutputs, OnlinePhaseShiftSeeded) {
  const auto m = online_run(apps::make_phase_shift(), true);
  EXPECT_GT(m.migrations, 0u);
  expect_pinned(m, {426613949939ll, 5, 5, 0, 22, 0x6d5f2e44880e6010ull},
                "seeded online phase-shift");
}

TEST(PinnedOutputs, OnlineLargeHot) {
  const auto m = online_run(apps::make_large_hot({}), false);
  EXPECT_GT(m.migrations, 0u);
  expect_pinned(m, {559653868915ll, 10, 10, 0, 3, 0x6e61dff21c6bfdccull}, "online large-hot");
}

// -------------------------------------------------------------- analysis

/// Digest of every field of an AnalysisResult, doubles by bit pattern.
std::uint64_t digest(const analyzer::AnalysisResult& r) {
  Digest d;
  for (const analyzer::SiteRecord& s : r.sites) {
    d.add(static_cast<std::uint64_t>(s.stack));
    for (const auto& frame : s.callstack.frames) {
      d.add(static_cast<std::uint64_t>(frame.module));
      d.add(static_cast<std::uint64_t>(frame.offset));
    }
    d.add(static_cast<std::uint64_t>(s.max_size));
    d.add(static_cast<std::uint64_t>(s.peak_live_bytes));
    d.add(s.alloc_count);
    d.add(s.load_misses);
    d.add(s.store_misses);
    d.add(s.avg_load_latency_ns);
    d.add(static_cast<std::uint64_t>(s.first_alloc));
    d.add(static_cast<std::uint64_t>(s.last_free));
    d.add(s.total_lifetime_ns);
    d.add(s.mean_lifetime_ns);
    d.add(s.exec_bw_gbs);
    d.add(s.alloc_time_system_bw_gbs);
    d.add(s.exec_time_system_bw_gbs);
    d.add(static_cast<std::uint64_t>(s.has_writes ? 1 : 0));
    for (const auto& w : s.windows) {
      d.add(static_cast<std::uint64_t>(w.start));
      d.add(static_cast<std::uint64_t>(w.end));
    }
  }
  for (const auto& p : r.system_bw) {
    d.add(static_cast<std::uint64_t>(p.time));
    d.add(p.gbs);
  }
  d.add(r.observed_peak_bw_gbs);
  for (const auto& f : r.functions) {
    d.add(f.name);
    d.add(f.load_samples);
    d.add(f.avg_load_latency_ns);
  }
  d.add(static_cast<std::uint64_t>(r.trace_end));
  d.add(r.unattributed_samples);
  return d.value();
}

/// Profiles `app` through the execution engine (the ecohmem-profile
/// path) and digests its analysis.
void expect_analysis_pinned(const std::string& app, std::size_t sites, std::uint64_t want) {
  const runtime::Workload workload = apps::make_app(app);
  const auto system = paper();
  profiler::Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&system, eopt);
  runtime::FixedTierMode mode(&system, 1);
  const auto metrics = engine.run(workload, mode);
  ASSERT_TRUE(metrics.has_value()) << metrics.error();
  const trace::Trace t = prof.take_trace();
  ASSERT_FALSE(t.events.empty());

  const auto analysis = analyzer::analyze(t);
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  EXPECT_EQ(analysis->sites.size(), sites) << app << ": got " << analysis->sites.size();
  EXPECT_EQ(digest(*analysis), want) << app << ": got 0x" << std::hex << digest(*analysis);
}

TEST(PinnedAnalysis, MiniFe) { expect_analysis_pinned("minife", 7, 0x581a16055717df92ull); }
TEST(PinnedAnalysis, MiniMd) { expect_analysis_pinned("minimd", 5, 0xf72977eb64f922c9ull); }
TEST(PinnedAnalysis, Lulesh) { expect_analysis_pinned("lulesh", 31, 0x9f0f56136428f0d7ull); }
TEST(PinnedAnalysis, Hpcg) { expect_analysis_pinned("hpcg", 8, 0xa73d49f03a81e6eaull); }
TEST(PinnedAnalysis, CloverLeaf3d) { expect_analysis_pinned("cloverleaf3d", 20, 0xaeca7009b7fad296ull); }
TEST(PinnedAnalysis, PhaseShift) { expect_analysis_pinned("phase-shift", 5, 0x759d3865036a5eb7ull); }

}  // namespace
}  // namespace ecohmem
