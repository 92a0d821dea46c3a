// Pinned outputs: fixed runs whose results are compared against values
// recorded from the replay engine, the profiler and the analyzer. Each
// trace is pinned by a digest of its v3 file bytes; each other run is reduced
// to a few exact counters plus an FNV-1a digest over the bit patterns of
// every floating-point result, so a change that shifts any reported
// number — one ulp of tier traffic, one migration event, one site's
// latency — fails here. Refactors of the engine, the execution modes,
// FlexMalloc, the online subsystem, the profiler or the analyzer must leave every
// line unchanged; a deliberate model change re-pins the values (the
// failure message prints the new initializer line).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/apps/synthetic.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/guidance.hpp"
#include "ecohmem/trace/trace_file.hpp"

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

/// splitmix64, the seeded stream the hand-built pins below draw from.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A report far larger than the Fig. 6 apps' over four modules:
/// 3,000 density-placed sites (1- and 16-frame stacks among 2- to
/// 6-frame ones, frame offsets 0 and 2^64-1, zero-size sites, sites
/// with no misses, and 429 sites of one equal density, which must keep
/// their input order; the 13 GiB DRAM limit runs out inside that group)
/// plus hand-placed decisions with footprints 0 and 2^64-1, under a
/// `# model =` stamp.
struct SyntheticReport {
  bom::ModuleTable modules;
  std::unique_ptr<bom::SymbolTable> symbols;
  advisor::Placement placement;
};

SyntheticReport synthetic_report() {
  constexpr std::uint64_t kMaxU64 = ~std::uint64_t{0};
  SyntheticReport out;
  for (const char* name : {"app.x", "libmpi.so.12", "libm.so.6", "libfoam.so"}) {
    out.modules.add_module(name, 1 << 24);
  }
  out.symbols = std::make_unique<bom::SymbolTable>(&out.modules);
  SplitMix rng(0x5eed);
  for (bom::ModuleId m = 0; m < 4; ++m) {
    out.symbols->add_entry(m, {0, "src/m" + std::to_string(m) + "/entry.cc", 1});
    for (std::uint32_t k = 0; k < 64; ++k) {
      out.symbols->add_entry(m, {rng.next() % (1ull << 24),
                                 "src/m" + std::to_string(m) + "/f" + std::to_string(k % 9) +
                                     ".cpp",
                                 10 + static_cast<std::uint32_t>(rng.next() % 5000)});
    }
  }

  const auto random_stack = [&](std::size_t frames) {
    bom::CallStack cs;
    for (std::size_t f = 0; f < frames; ++f) {
      const std::uint64_t r = rng.next();
      const std::uint64_t offset = r % 16 == 0 ? 0 : r % 16 == 1 ? kMaxU64 : r >> 40;
      cs.frames.push_back(bom::Frame{static_cast<bom::ModuleId>(rng.next() % 4), offset});
    }
    return cs;
  };

  std::vector<analyzer::SiteRecord> sites;
  for (std::size_t k = 0; k < 3000; ++k) {
    analyzer::SiteRecord s;
    s.stack = static_cast<trace::StackId>(k);
    s.callstack = random_stack(k % 5 == 0 ? 1 : k % 5 == 1 ? 16 : 2 + rng.next() % 5);
    if (k % 7 == 0) {  // one density shared by every seventh site
      s.max_size = 1 << 20;
      s.load_misses = 512.0;
      s.store_misses = 64.0;
    } else if (k % 11 == 0) {  // no misses: worthless to a fast tier
      s.max_size = 1 + rng.next() % (64ull << 20);
    } else {
      s.max_size = k % 13 == 0 ? 0 : 1 + rng.next() % (64ull << 20);
      s.load_misses = static_cast<double>(rng.next() % 100000) / 4.0;
      s.store_misses = static_cast<double>(rng.next() % 20000) / 8.0;
    }
    s.peak_live_bytes = s.max_size;
    sites.push_back(std::move(s));
  }
  auto placed =
      advisor::place_by_density(sites, advisor::AdvisorConfig::dram_pmem(13ull << 30, 0.125));
  EXPECT_TRUE(placed.has_value()) << placed.error();
  if (placed) out.placement = std::move(*placed);

  for (const Bytes footprint : {Bytes{0}, kMaxU64, Bytes{1}, kMaxU64 - 1}) {
    advisor::PlacementDecision d;
    d.stack = static_cast<trace::StackId>(out.placement.decisions.size());
    d.callstack = random_stack(16);
    d.callstack.frames.front().offset = 0;
    d.callstack.frames.back().offset = kMaxU64;
    d.tier = footprint % 2 == 0 ? "dram" : "pmem";
    d.footprint = footprint;
    out.placement.decisions.push_back(std::move(d));
  }
  out.placement.model_stamp = "0x9ae16a3b2f90404f";
  return out;
}

TEST(PinnedOutputs, SyntheticReportBytes) {
  const SyntheticReport r = synthetic_report();
  ASSERT_EQ(r.placement.decisions.size(), 3004u);
  const struct {
    advisor::ReportFormat format;
    std::size_t bytes;
    std::uint64_t digest;
  } pinned[] = {
      {advisor::ReportFormat::kBom, 433772, 0x32242670589fb032ull},
      {advisor::ReportFormat::kHumanReadable, 424351, 0xa57841f3591d6760ull},
  };
  for (const auto& p : pinned) {
    const auto text =
        advisor::report_to_string(r.placement, p.format, r.modules, r.symbols.get());
    ASSERT_TRUE(text.has_value()) << text.error();
    Digest d;
    d.add(*text);
    EXPECT_EQ(text->size(), p.bytes) << advisor::to_string(p.format);
    EXPECT_EQ(d.value(), p.digest)
        << advisor::to_string(p.format) << " report: got 0x" << std::hex << d.value();
    if (p.format == advisor::ReportFormat::kBom) {
      EXPECT_NE(text->find("# model = 0x9ae16a3b2f90404f\n"), std::string::npos);
      EXPECT_NE(text->find("!0xffffffffffffffff @ "), std::string::npos);
      EXPECT_NE(text->find("!0x0 > "), std::string::npos);
      EXPECT_NE(text->find(" # size=18446744073709551615\n"), std::string::npos);
      EXPECT_NE(text->find(" @ dram # size=0\n"), std::string::npos);
    }
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

/// FNV-1a over every bin of every tier's bandwidth timeline: tier count,
/// then per tier its bin count and each bin's start time and gbs bits.
std::uint64_t timeline_digest(const runtime::RunMetrics& m) {
  Digest d;
  d.add(static_cast<std::uint64_t>(m.bandwidth.tier_count()));
  for (std::size_t k = 0; k < m.bandwidth.tier_count(); ++k) {
    const auto series = m.bandwidth.series(k);
    d.add(static_cast<std::uint64_t>(series.size()));
    for (const auto& p : series) {
      d.add(static_cast<std::uint64_t>(p.time));
      d.add(p.gbs);
    }
  }
  return d.value();
}

TEST(PinnedOutputs, BandwidthTimelines) {
  const struct {
    const char* app;
    std::uint64_t baseline;
    std::uint64_t production;
  } pinned[] = {
      {"minife", 0x754f417ca1b7d0faull, 0x6b30e5b19f363a22ull},
      {"minimd", 0x2055845f136cbdb4ull, 0x8f852f6e081c5e30ull},
      {"lulesh", 0x0646f812acc168d9ull, 0x4333057887e46784ull},
      {"hpcg", 0x6daa1190c2b18ad2ull, 0x5592ae1c5355b223ull},
      {"cloverleaf3d", 0x92c8fe06c17a1db9ull, 0xbeca1057efa62966ull},
  };
  const auto system = paper();
  for (const auto& p : pinned) {
    core::WorkflowOptions wopt;
    wopt.dram_limit = kDramLimit;
    const auto workflow = core::run_workflow(apps::make_app(p.app), system, wopt);
    ASSERT_TRUE(workflow.has_value()) << p.app << ": " << workflow.error();
    EXPECT_EQ(timeline_digest(workflow->baseline_metrics), p.baseline)
        << p.app << " memory mode: got 0x" << std::hex << std::setw(16) << std::setfill('0')
        << timeline_digest(workflow->baseline_metrics);
    EXPECT_EQ(timeline_digest(workflow->production_metrics), p.production)
        << p.app << " app-direct: got 0x" << std::hex << std::setw(16) << std::setfill('0')
        << timeline_digest(workflow->production_metrics);
  }
  const auto online = online_run(apps::make_phase_shift(), false);
  EXPECT_EQ(timeline_digest(online), 0xd15c7cc607e77eb6ull)
      << "online phase-shift: got 0x" << std::hex << std::setw(16) << std::setfill('0')
      << timeline_digest(online);
}

// ---------------------------------------------------------------- traces

/// Profiles `app` the way ecohmem-profile does (memory mode on the paper
/// system) and digests the trace's v3 file bytes.
std::uint64_t trace_digest(const std::string& app, const profiler::ProfilerOptions& popt) {
  const runtime::Workload workload = apps::make_app(app);
  const auto system = paper();
  profiler::Profiler prof(popt);
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  memsim::DramCacheModel cache(system.tier(0).capacity());
  runtime::MemoryModeExec mode(&system, 0, system.fallback_index(), cache);
  runtime::ExecutionEngine engine(&system, eopt);
  const auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value()) << app << ": " << metrics.error();

  std::ostringstream os;
  const auto written = trace::write_trace(os, prof.take_trace(), *workload.modules);
  EXPECT_TRUE(written.ok()) << app << ": " << written.error();
  Digest d;
  d.add(std::move(os).str());
  return d.value();
}

struct PinnedTrace {
  const char* app;
  std::uint64_t digest;
};

void expect_traces_pinned(const std::vector<PinnedTrace>& pinned,
                          const profiler::ProfilerOptions& popt, const std::string& run) {
  for (const PinnedTrace& p : pinned) {
    const std::uint64_t got = trace_digest(p.app, popt);
    EXPECT_EQ(got, p.digest) << p.app << " (" << run << "): got 0x" << std::hex << std::setw(16)
                                << std::setfill('0') << got;
  }
}

TEST(PinnedTraces, RegistryApps) {
  const std::vector<PinnedTrace> pinned = {
      {"cloverleaf3d", 0x491b121182486f5cull}, {"hpcg", 0x41cc4040e30ac618ull},
      {"lammps", 0x3d2606a3e2ffab9eull},       {"large-hot", 0xb60722c5f48b13dcull},
      {"lulesh", 0x927201c89f51fb01ull},       {"minife", 0x70916f1a8228e972ull},
      {"minimd", 0x3239b9e4a58687aaull},       {"openfoam", 0x3a5c79c9938843e2ull},
      {"phase-shift", 0x2c40e4d470a5ff29ull},
  };
  std::vector<std::string> names;
  for (const PinnedTrace& p : pinned) names.emplace_back(p.app);
  std::vector<std::string> registry = apps::app_names();
  std::sort(registry.begin(), registry.end());
  EXPECT_EQ(names, registry);
  expect_traces_pinned(pinned, {}, "default rate");
}

TEST(PinnedTraces, Fig6At10Hz) {
  profiler::ProfilerOptions popt;
  popt.sample_rate_hz = 10.0;
  expect_traces_pinned({{"minife", 0x8b27ddf8904cd92cull},
                        {"minimd", 0x9f80e0a0f7d5e87dull},
                        {"lulesh", 0xb04f7322f1f004e3ull},
                        {"hpcg", 0x320eae0a25444a35ull},
                        {"cloverleaf3d", 0x0e84ad0f1078eb44ull}},
                       popt, "10 Hz");
}

TEST(PinnedTraces, Fig6At1000Hz) {
  profiler::ProfilerOptions popt;
  popt.sample_rate_hz = 1000.0;
  expect_traces_pinned({{"minife", 0x19386e4a559bb360ull},
                        {"minimd", 0xf83a401a00d16552ull},
                        {"lulesh", 0x0cc048060eb4b013ull},
                        {"hpcg", 0x008e238a7b2f1685ull},
                        {"cloverleaf3d", 0xc2d2c09b9037bd52ull}},
                       popt, "1000 Hz");
}

TEST(PinnedTraces, NoStoreSamples) {
  profiler::ProfilerOptions popt;
  popt.sample_stores = false;
  expect_traces_pinned({{"minife", 0x72219643196adca7ull}, {"lulesh", 0x831926c4bd760443ull}}, popt,
                       "no stores");
}

TEST(PinnedTraces, NoLoadSamples) {
  profiler::ProfilerOptions popt;
  popt.sample_loads = false;
  expect_traces_pinned({{"minife", 0xc1d398cb6dbe6c43ull}, {"lulesh", 0x98ae900362cf5e26ull}}, popt,
                       "no loads");
}

TEST(PinnedTraces, NoUncoreReadings) {
  profiler::ProfilerOptions popt;
  popt.sample_uncore = false;
  expect_traces_pinned({{"minife", 0xdc2fa0621017d31aull}, {"lulesh", 0x7f054ab8d50fc509ull}}, popt,
                       "no uncore");
}

// -------------------------------------------------------------- analysis

/// Digest of the per-site, per-function and whole-run fields of an
/// AnalysisResult, doubles by bit pattern.
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
/// path) with every object in PMem.
trace::Trace profiled_trace(const std::string& app, const profiler::ProfilerOptions& popt = {}) {
  const runtime::Workload workload = apps::make_app(app);
  const auto system = paper();
  profiler::Profiler prof(popt);
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&system, eopt);
  runtime::FixedTierMode mode(&system, 1);
  const auto metrics = engine.run(workload, mode);
  EXPECT_TRUE(metrics.has_value()) << app << ": " << metrics.error();
  return prof.take_trace();
}

/// Profiles `app` (see profiled_trace) and digests its analysis.
void expect_analysis_pinned(const std::string& app, std::size_t sites, std::uint64_t want,
                            const profiler::ProfilerOptions& popt = {}) {
  const trace::Trace t = profiled_trace(app, popt);
  ASSERT_FALSE(t.events.empty());

  const auto analysis = analyzer::analyze(t);
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  EXPECT_EQ(analysis->sites.size(), sites) << app << ": got " << analysis->sites.size();
  EXPECT_EQ(digest(*analysis), want) << app << ": got 0x" << std::hex << digest(*analysis);
  if (!popt.sample_loads) {
    // Store-only samples still list the functions that issued them.
    EXPECT_FALSE(analysis->functions.empty()) << app;
  }
}

TEST(PinnedAnalysis, MiniFe) { expect_analysis_pinned("minife", 7, 0xc2a43a99341858ecull); }
TEST(PinnedAnalysis, MiniMd) { expect_analysis_pinned("minimd", 5, 0xee7e5a6646f07de8ull); }
TEST(PinnedAnalysis, Lulesh) { expect_analysis_pinned("lulesh", 31, 0x3fbb43a29daf390full); }
TEST(PinnedAnalysis, Hpcg) { expect_analysis_pinned("hpcg", 8, 0x3879a4eff5f818a6ull); }
TEST(PinnedAnalysis, CloverLeaf3d) { expect_analysis_pinned("cloverleaf3d", 20, 0xb897e94dc41c9e81ull); }
TEST(PinnedAnalysis, PhaseShift) { expect_analysis_pinned("phase-shift", 5, 0xaf1e79e37f4dae3bull); }
TEST(PinnedAnalysis, Lammps) { expect_analysis_pinned("lammps", 29, 0x61d087d43524719aull); }
TEST(PinnedAnalysis, OpenFoam) { expect_analysis_pinned("openfoam", 25, 0x75fa70c021c4bb01ull); }
TEST(PinnedAnalysis, LargeHot) { expect_analysis_pinned("large-hot", 10, 0xf6841bee85857118ull); }

TEST(PinnedAnalysis, CoversRegistry) {
  std::vector<std::string> pinned = {"minife", "minimd",      "lulesh", "hpcg",     "cloverleaf3d",
                                     "lammps", "phase-shift", "openfoam", "large-hot"};
  std::vector<std::string> registry = apps::app_names();
  std::sort(pinned.begin(), pinned.end());
  std::sort(registry.begin(), registry.end());
  EXPECT_EQ(pinned, registry);
}

TEST(PinnedAnalysis, NoUncoreReadings) {
  // Without uncore readings the bandwidth timeline is rebuilt from the
  // samples themselves.
  profiler::ProfilerOptions popt;
  popt.sample_uncore = false;
  expect_analysis_pinned("minife", 7, 0xb3700517636d0945ull, popt);
  expect_analysis_pinned("lulesh", 31, 0xeb57abf9be277c40ull, popt);
}

TEST(PinnedAnalysis, NoLoadSamples) {
  profiler::ProfilerOptions popt;
  popt.sample_loads = false;
  expect_analysis_pinned("minife", 7, 0x49c99e628c47a302ull, popt);
  expect_analysis_pinned("lulesh", 31, 0xc8d07d436ae6d4a7ull, popt);
}

/// A hand-built stream with the corner cases the profiler never emits:
/// function ids past the table (two of them, both named "?"), a
/// store-only function, an address reused while its first object is
/// live, samples outside every object, a zero-size allocation and
/// uncore readings that only start late in the stream.
trace::Trace edge_case_trace() {
  using trace::AllocEvent;
  using trace::FreeEvent;
  using trace::MarkerEvent;
  using trace::SampleEvent;
  using trace::UncoreBwEvent;
  trace::Trace t;
  t.sample_rate_hz = 100.0;
  const trace::StackId s0 = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const trace::StackId s1 = t.stacks.intern(bom::CallStack{{{0, 0x20}}});
  const trace::StackId s2 = t.stacks.intern(bom::CallStack{{{1, 0x30}, {0, 0x40}}});
  const std::uint32_t fa = t.functions.intern("kernel_a");
  const std::uint32_t fb = t.functions.intern("kernel_b");
  const std::uint32_t fc = t.functions.intern("kernel_c");  // store samples only
  const std::uint32_t past_a = 7;  // past the function table
  const std::uint32_t past_b = 9;

  auto& e = t.events;
  e.emplace_back(AllocEvent{100, 1, 0x1000, 4096, s0, trace::AllocKind::kMalloc});
  e.emplace_back(SampleEvent{150, 0x1010, 2.0, 120.0, false, fa});
  e.emplace_back(AllocEvent{200, 2, 0x8000, 0, s1, trace::AllocKind::kMalloc});  // zero size
  e.emplace_back(SampleEvent{250, 0x8000, 1.0, 90.0, false, fb});  // hits nothing
  e.emplace_back(SampleEvent{300, 0x1800, 3.0, 0.0, true, past_a});
  e.emplace_back(MarkerEvent{320, fa, true});
  // Address reuse while object 1 is still live.
  e.emplace_back(AllocEvent{350, 3, 0x1000, 8192, s2, trace::AllocKind::kCalloc});
  e.emplace_back(SampleEvent{400, 0x1f00, 1.5, 300.0, false, past_a});
  e.emplace_back(SampleEvent{450, 0x50000, 4.0, 80.0, false, fb});  // outside every object
  e.emplace_back(SampleEvent{470, 0x1100, 2.5, 0.0, true, fc});
  e.emplace_back(FreeEvent{500, 3});
  // Object 1 is live but displaced: samples no longer resolve to it.
  e.emplace_back(SampleEvent{520, 0x1000, 1.0, 0.0, true, fa});
  e.emplace_back(AllocEvent{600, 4, 0x2000, 1024, s0, trace::AllocKind::kNew});
  e.emplace_back(SampleEvent{650, 0x2100, 1.0, 0.0, true, past_b});
  e.emplace_back(MarkerEvent{680, fa, false});
  e.emplace_back(UncoreBwEvent{700, 200, 3.5, 1.25});
  e.emplace_back(SampleEvent{800, 0x2200, 2.0, 150.0, false, fb});
  e.emplace_back(FreeEvent{900, 2});
  e.emplace_back(SampleEvent{950, 0x23ff, 1.0, 0.0, true, fc});
  e.emplace_back(UncoreBwEvent{1000, 300, 2.0, 0.5});
  return t;
}

TEST(PinnedAnalysis, HandBuiltEdgeCases) {
  analyzer::AnalyzerOptions options;
  options.bw_bin_ns = 250;
  options.alloc_window_ns = 400;

  const trace::Trace with_uncore = edge_case_trace();
  const auto a = analyzer::analyze(with_uncore, options);
  ASSERT_TRUE(a.has_value()) << a.error();
  EXPECT_EQ(a->sites.size(), 3u);
  EXPECT_EQ(a->functions.size(), 5u);
  EXPECT_EQ(digest(*a), 0x674acf6920c40ff5ull) << "with uncore: got 0x" << std::hex << digest(*a);

  // The same stream without its uncore readings: sample fallback meter.
  trace::Trace samples_only = edge_case_trace();
  std::erase_if(samples_only.events, [](const trace::Event& ev) {
    return std::holds_alternative<trace::UncoreBwEvent>(ev);
  });
  const auto b = analyzer::analyze(samples_only, options);
  ASSERT_TRUE(b.has_value()) << b.error();
  EXPECT_EQ(digest(*b), 0x6c3171c597fde786ull) << "samples only: got 0x" << std::hex << digest(*b);
}

/// Live and allocation windows at the edges of the bandwidth bins
/// (bins of 1000 ns, allocation windows of 2000 ns, so an allocation at
/// `t > 2000` averages [t - 1000, t + 1000) and one at or before 2000
/// clamps to [0, 2000)): windows that start or end exactly on a bin
/// edge, lie inside one bin, have zero duration, or run past the last
/// bin the meter holds (the last uncore reading ends at 9000 while
/// events go on to 14500).
trace::Trace bin_edge_trace() {
  using trace::AllocEvent;
  using trace::FreeEvent;
  using trace::MarkerEvent;
  using trace::SampleEvent;
  using trace::UncoreBwEvent;
  trace::Trace t;
  t.sample_rate_hz = 100.0;
  std::vector<trace::StackId> s;
  for (std::uint64_t k = 0; k < 6; ++k) {
    s.push_back(t.stacks.intern(bom::CallStack{{{0, 0x100 + 0x10 * k}}}));
  }
  const std::uint32_t fn = t.functions.intern("kernel");
  const auto kMalloc = trace::AllocKind::kMalloc;

  auto& e = t.events;
  e.emplace_back(AllocEvent{0, 1, 0x10000, 4096, s[0], kMalloc});  // clamps at t = 0
  e.emplace_back(UncoreBwEvent{500, 500, 3.0, 1.0});
  e.emplace_back(AllocEvent{1000, 2, 0x20000, 2048, s[1], kMalloc});  // on an edge, clamps
  e.emplace_back(SampleEvent{1200, 0x10010, 2.0, 110.0, false, fn});
  e.emplace_back(UncoreBwEvent{2000, 1500, 5.5, 2.25});
  e.emplace_back(AllocEvent{2000, 3, 0x30000, 512, s[2], kMalloc});  // last clamped start
  e.emplace_back(SampleEvent{2100, 0x20100, 1.5, 0.0, true, fn});
  e.emplace_back(FreeEvent{3000, 2});  // [1000, 3000): both ends on edges
  e.emplace_back(AllocEvent{3000, 4, 0x40000, 1024, s[3], kMalloc});  // window [2000, 4000)
  e.emplace_back(FreeEvent{3000, 4});  // zero duration
  e.emplace_back(UncoreBwEvent{3700, 1700, 8.0, 0.5});
  e.emplace_back(AllocEvent{4250, 5, 0x50000, 8192, s[4], kMalloc});  // [3250, 5250)
  e.emplace_back(SampleEvent{4300, 0x50010, 3.0, 240.0, false, fn});
  e.emplace_back(FreeEvent{4750, 5});  // [4250, 4750): inside one bin
  e.emplace_back(UncoreBwEvent{6000, 2000, 1.0, 1.0});  // exactly bins 4 and 5
  e.emplace_back(AllocEvent{6400, 6, 0x50000, 8192, s[4], kMalloc});
  e.emplace_back(SampleEvent{6500, 0x30010, 1.0, 0.0, true, fn});
  e.emplace_back(MarkerEvent{7000, fn, true});
  e.emplace_back(FreeEvent{7000, 3});  // [2000, 7000): both ends on edges
  e.emplace_back(AllocEvent{8800, 7, 0x60000, 256, s[5], kMalloc});  // window past the bins
  e.emplace_back(UncoreBwEvent{9000, 2500, 6.25, 3.0});  // the last bin is [8000, 9000)
  e.emplace_back(FreeEvent{9000, 6});  // [6400, 9000): ends on the meter's end
  e.emplace_back(AllocEvent{11000, 8, 0x70000, 128, s[5], kMalloc});  // window beyond the bins
  e.emplace_back(SampleEvent{12000, 0x70000, 2.5, 300.0, false, fn});
  e.emplace_back(FreeEvent{13000, 7});  // [8800, 13000): runs past the last bin
  e.emplace_back(MarkerEvent{14500, fn, false});  // objects 1 and 8 close here
  return t;
}

TEST(PinnedAnalysis, WindowsOnBinEdges) {
  analyzer::AnalyzerOptions options;
  options.bw_bin_ns = 1000;
  options.alloc_window_ns = 2000;

  const trace::Trace with_uncore = bin_edge_trace();
  const auto a = analyzer::analyze(with_uncore, options);
  ASSERT_TRUE(a.has_value()) << a.error();
  EXPECT_EQ(a->sites.size(), 6u);
  EXPECT_EQ(digest(*a), 0x49c6a1c436717ab7ull) << "with uncore: got 0x" << std::hex << digest(*a);

  // Without uncore readings the meter ends at the last sample's bin.
  trace::Trace samples_only = bin_edge_trace();
  std::erase_if(samples_only.events, [](const trace::Event& ev) {
    return std::holds_alternative<trace::UncoreBwEvent>(ev);
  });
  const auto b = analyzer::analyze(samples_only, options);
  ASSERT_TRUE(b.has_value()) << b.error();
  EXPECT_EQ(digest(*b), 0x47896d6456749504ull) << "samples only: got 0x" << std::hex << digest(*b);
}

// ------------------------------------------------------ system bandwidth

/// The system bandwidth timeline the way ecohmem-timeline --trace built
/// it before the analyzer's fold was shared: a first pass learns whether
/// the trace carries uncore readings, a second bins the readings, or the
/// samples when there are none.
memsim::BandwidthMeter two_pass_timeline(const trace::Trace& t, Ns bin_ns) {
  bool has_uncore = false;
  for (const trace::Event& e : t.events) {
    has_uncore = has_uncore || std::holds_alternative<trace::UncoreBwEvent>(e);
  }
  memsim::BandwidthMeter meter(1, bin_ns);
  for (const trace::Event& e : t.events) {
    if (const auto* u = std::get_if<trace::UncoreBwEvent>(&e)) {
      const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
      meter.add(0, t0, u->time, (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
    } else if (const auto* smp = std::get_if<trace::SampleEvent>(&e)) {
      if (!has_uncore) {
        meter.add(0, smp->time, smp->time + 1, smp->weight * static_cast<double>(kCacheLine));
      }
    }
  }
  return meter;
}

/// Folds `t` through SystemBandwidthFold in one pass and expects the
/// two-pass timeline bit for bit, and the analyzer's observed peak.
/// Returns the fold's bin count.
std::size_t expect_fold_matches_two_pass(const trace::Trace& t, Ns bin_ns,
                                         const std::string& what) {
  analyzer::SystemBandwidthFold fold(bin_ns);
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const Status s = fold.add(i, t.events[i]);
    EXPECT_TRUE(s.ok()) << what << ": " << s.error();
  }
  const auto got = fold.meter().series(0);
  const auto want = two_pass_timeline(t, bin_ns).series(0);
  EXPECT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
    EXPECT_EQ(got[k].time, want[k].time) << what << " bin " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].gbs), std::bit_cast<std::uint64_t>(want[k].gbs))
        << what << " bin " << k << ": " << got[k].gbs << " vs " << want[k].gbs;
  }

  analyzer::AnalyzerOptions options;
  options.bw_bin_ns = bin_ns;
  const auto analysis = analyzer::analyze(t, options);
  EXPECT_TRUE(analysis.has_value()) << what << ": " << analysis.error();
  if (analysis) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fold.meter().peak_gbs(0)),
              std::bit_cast<std::uint64_t>(analysis->observed_peak_bw_gbs))
        << what;
  }
  return got.size();
}

TEST(SharedBandwidthFold, MatchesTheTwoPassTimelineOnFig6Traces) {
  profiler::ProfilerOptions no_uncore;
  no_uncore.sample_uncore = false;
  for (const char* app : {"minife", "minimd", "lulesh", "hpcg", "cloverleaf3d"}) {
    const trace::Trace with = profiled_trace(app);
    const trace::Trace without = profiled_trace(app, no_uncore);
    EXPECT_GT(expect_fold_matches_two_pass(with, 10'000'000, std::string(app) + " uncore"), 0u);
    EXPECT_GT(expect_fold_matches_two_pass(without, 10'000'000, std::string(app) + " samples"), 0u);
  }
}

TEST(SharedBandwidthFold, MatchesTheTwoPassTimelineOnHandBuiltStreams) {
  // Samples before the first uncore reading count only until it arrives.
  expect_fold_matches_two_pass(edge_case_trace(), 250, "edge cases");
  // The last uncore reading ends at 9000: bins [0, 9000) of 1000 ns.
  EXPECT_EQ(expect_fold_matches_two_pass(bin_edge_trace(), 1000, "bin edges"), 9u);
  trace::Trace samples_only = bin_edge_trace();
  std::erase_if(samples_only.events, [](const trace::Event& ev) {
    return std::holds_alternative<trace::UncoreBwEvent>(ev);
  });
  expect_fold_matches_two_pass(samples_only, 1000, "bin edges, samples only");
}

/// A seeded stream that keeps thousands of objects live at once, the
/// scale the profiler's apps never reach (their live sets are a few
/// dozen objects). It fills 6,000 random slots of a 16K-slot address
/// range, reuses 300 live addresses (and frees 100 of the shadowed ids,
/// which closes the shadowed objects while the objects that reused their
/// addresses stay live), frees the lowest,
/// the highest and a middle band of 400 live addresses each, refills
/// the emptied ends and then churns. Slot sizes place zero-size
/// objects right after slot-filling ones and let some objects overlap
/// the next slot's start. After every few events it samples a live
/// object at `start`, `end - 1` and `end`, below the lowest live
/// address, above the highest and at a random address.
struct LiveIndexStream {
  trace::Trace trace;
  std::size_t peak_live = 0;
};

LiveIndexStream live_index_stream() {
  using trace::AllocEvent;
  using trace::FreeEvent;
  using trace::SampleEvent;
  using trace::UncoreBwEvent;
  constexpr std::uint64_t kBase = 0x10'0000'0000ull;
  constexpr std::uint64_t kSlot = 0x1000;
  constexpr std::uint64_t kSlots = 16384;

  LiveIndexStream out;
  trace::Trace& t = out.trace;
  t.sample_rate_hz = 1000.0;
  std::vector<trace::StackId> stacks;
  for (std::uint64_t k = 0; k < 40; ++k) {
    stacks.push_back(
        t.stacks.intern(bom::CallStack{{{static_cast<bom::ModuleId>(k % 3), 0x100 + 0x10 * k}}}));
  }
  for (const char* name : {"spmv", "dot", "axpy", "halo", "reduce"}) t.functions.intern(name);

  SplitMix rng(23);
  const auto next = [&rng] { return rng.next(); };
  const auto slot_size = [&next](std::uint64_t slot) -> Bytes {
    switch (slot % 8) {
      case 0: return 0;                  // right after a slot-filling object
      case 7: return kSlot;              // ends exactly at the next slot
      case 3: return kSlot + kSlot / 2;  // overlaps the next slot's start
      default: return 1 + next() % (kSlot - 1);
    }
  };

  // The object last allocated at each address and each id's address, so
  // that every free names an id allocated before and not yet freed. A
  // shadowed id's free erases its address here, while the analyzer keeps
  // the object that reused the address live: that object is freed only
  // if its address is allocated again first, or closes at the end.
  struct Live {
    std::uint64_t id;
    Bytes size;
  };
  std::map<std::uint64_t, Live> live;                      // address -> object
  std::unordered_map<std::uint64_t, std::uint64_t> addr_of;  // id -> address
  std::uint64_t next_id = 1;
  Ns now = 0;
  auto& e = t.events;
  const auto tick = [&] {
    now += 1 + next() % 400;
    if (e.size() % 1024 == 1023) {
      e.emplace_back(UncoreBwEvent{now, 20'000, static_cast<double>(next() % 40) / 4.0, 0.75});
    }
    return now;
  };
  const auto alloc = [&](std::uint64_t addr, Bytes size) {
    const std::uint64_t id = next_id++;
    e.emplace_back(AllocEvent{tick(), id, addr, size, stacks[next() % stacks.size()],
                              trace::AllocKind::kMalloc});
    live[addr] = Live{id, size};
    addr_of[id] = addr;
    out.peak_live = std::max(out.peak_live, live.size());
    return id;
  };
  const auto free_id = [&](std::uint64_t id) {
    const auto a = addr_of.find(id);
    if (a == addr_of.end() || live.erase(a->second) == 0) return;  // would fail the stream
    addr_of.erase(a);
    e.emplace_back(FreeEvent{tick(), id});
  };
  const auto sample = [&](std::uint64_t addr) {
    const bool store = next() % 4 == 0;
    const double weight = 1.0 + static_cast<double>(next() % 4) * 0.5;
    const double latency = store ? 0.0 : 50.0 + static_cast<double>(next() % 400);
    e.emplace_back(SampleEvent{tick(), addr, weight, latency, store,
                               static_cast<std::uint32_t>(next() % 5)});
  };
  const auto probe = [&] {
    if (live.empty()) return;
    const auto it = live.lower_bound(kBase + (next() % kSlots) * kSlot);
    const auto& [start, obj] = it != live.end() ? *it : *live.begin();
    sample(start);
    if (obj.size > 0) sample(start + obj.size - 1);
    sample(start + obj.size);
    sample(live.begin()->first - 1 - next() % 64);
    sample(live.rbegin()->first + 2 * kSlot + next() % 64);
    sample(kBase + next() % (kSlots * kSlot));
  };

  // Fill 6,000 random slots, in random order.
  std::vector<std::uint64_t> slots(kSlots);
  for (std::uint64_t k = 0; k < kSlots; ++k) slots[k] = k;
  for (std::uint64_t k = kSlots - 1; k > 0; --k) std::swap(slots[k], slots[next() % (k + 1)]);
  for (std::size_t k = 0; k < 6000; ++k) {
    alloc(kBase + slots[k] * kSlot, slot_size(slots[k]));
    if (k % 4 == 3) probe();
  }

  // Address reuse while live, then free some of the shadowed ids.
  std::vector<std::uint64_t> shadowed;
  for (int k = 0; k < 300; ++k) {
    const auto it = live.lower_bound(kBase + (next() % kSlots) * kSlot);
    if (it == live.end()) continue;
    shadowed.push_back(it->second.id);
    alloc(it->first, 1 + next() % (2 * kSlot));
    if (k % 8 == 0) probe();
  }
  for (std::size_t k = 0; k < 100 && k < shadowed.size(); ++k) free_id(shadowed[k]);

  // Empty whole stretches of the address order: the lowest, the
  // highest and a middle band of live addresses.
  const auto free_band = [&](std::size_t from, std::size_t n) {
    std::vector<std::uint64_t> ids;
    auto it = live.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(from));
    for (; it != live.end() && ids.size() < n; ++it) ids.push_back(it->second.id);
    for (const std::uint64_t id : ids) free_id(id);
    for (int k = 0; k < 8; ++k) probe();
  };
  free_band(0, 400);
  free_band(live.size() - 400, 400);
  free_band(live.size() / 2, 400);

  // Refill below the lowest and above the highest live address.
  const std::uint64_t low = (live.begin()->first - kBase) / kSlot;
  const std::uint64_t high = (live.rbegin()->first - kBase) / kSlot;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t s = next() % low;
    alloc(kBase + s * kSlot, slot_size(s));
    const std::uint64_t h = high + 1 + next() % (kSlots - high - 1);
    alloc(kBase + h * kSlot, slot_size(h));
    if (k % 4 == 0) probe();
  }

  // Churn: allocations (some reusing live addresses), frees, samples.
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t r = next() % 10;
    if (r < 4) {
      const std::uint64_t s = next() % kSlots;
      alloc(kBase + s * kSlot, slot_size(s));
    } else if (r < 7) {
      free_id(1 + next() % (next_id - 1));
    } else {
      probe();
    }
  }
  return out;
}

TEST(PinnedAnalysis, LiveIndexAtScale) {
  const LiveIndexStream stream = live_index_stream();
  const trace::Trace& t = stream.trace;
  EXPECT_GE(stream.peak_live, 5000u);
  analyzer::AnalyzerOptions options;
  options.bw_bin_ns = 50'000;
  options.alloc_window_ns = 200'000;

  const auto whole = analyzer::analyze(t, options);
  ASSERT_TRUE(whole.has_value()) << whole.error();
  EXPECT_EQ(whole->sites.size(), 40u);
  EXPECT_EQ(digest(*whole), 0x422e6fd42ceaf444ull) << "got 0x" << std::hex << digest(*whole);

  // Any partition of the stream folds to the same result.
  for (const std::size_t slice : {std::size_t{1}, std::size_t{4096}, std::size_t{977}}) {
    analyzer::IncrementalAggregator fold(t.stacks, t.functions, options);
    for (std::size_t at = 0; at < t.events.size(); at += slice) {
      const auto status = fold.ingest(t.events.data() + at, std::min(slice, t.events.size() - at));
      ASSERT_TRUE(status.ok()) << status.error();
    }
    const auto sliced = fold.finalize();
    ASSERT_TRUE(sliced.has_value()) << sliced.error();
    EXPECT_EQ(digest(*sliced), digest(*whole)) << "slices of " << slice;
  }
}

}  // namespace
}  // namespace ecohmem
