// ecohmem-run — the production stage: runs an application model
// app-direct through FlexMalloc honoring a placement report, and
// compares against the memory-mode baseline.
//
// Usage:
//   ecohmem-run --app <name> --report <report.txt>
//               [--iterations N] [--dram-capacity 12GB] [--pmem-dimms 6]
//               [--online <policy.ini>]
//               [--from-report <report.txt>] [--migration-log <out.csv>]
//
// The report's BOM call stacks are matched against the application's
// module table (the "same optimized binary" requirement of §IV); the
// module layout is re-randomized ASLR-style to demonstrate that BOM
// matching is base-independent.

#include <chrono>
#include <cstdio>
#include <optional>

#include "cli_common.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/guidance.hpp"

using namespace ecohmem;

namespace {

/// Writes the run's migration events as CSV — one row per applied move,
/// a trailing `# summary` comment with the counter identities — the
/// artifact `ecohmem-lint --migration-log` validates (docs/linting.md).
bool write_migration_log(const std::string& path, const runtime::RunMetrics& metrics) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "at_ns,object,from_tier,to_tier,bytes,offset,partial\n");
  for (const auto& e : metrics.migration_events) {
    std::fprintf(out, "%lld,%zu,%zu,%zu,%llu,%llu,%d\n", static_cast<long long>(e.at),
                 e.object, e.from_tier, e.to_tier, static_cast<unsigned long long>(e.bytes),
                 static_cast<unsigned long long>(e.offset), e.partial ? 1 : 0);
  }
  std::fprintf(out, "# summary scheduled=%llu applied=%llu partial=%llu cancelled=%llu "
               "migrated_bytes=%llu\n",
               static_cast<unsigned long long>(metrics.migrations_scheduled),
               static_cast<unsigned long long>(metrics.migrations),
               static_cast<unsigned long long>(metrics.migrations_partial),
               static_cast<unsigned long long>(metrics.migrations_cancelled),
               static_cast<unsigned long long>(metrics.migrated_bytes));
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv,
                       {"app", "dram-capacity", "from-report", "iterations", "migration-log",
                        "online", "pmem-dimms", "report"},
                       {"help"});
  if (!args.unknown().empty()) return cli::fail_unknown_flag(args);
  if (args.has("help") || !args.has("app") || !args.has("report")) {
    std::printf(
        "usage: ecohmem-run --app <name> --report <report.txt>\n"
        "                   [--iterations N] [--dram-capacity 12GB] [--pmem-dimms 6]\n"
        "                   [--online <policy.ini>]\n"
        "                   [--from-report <report.txt>] [--migration-log <out.csv>]\n"
        "\n"
        "  --online F         enable the online placement policy from INI file F\n"
        "                     (docs/online.md)\n"
        "  --from-report R    seed the online policy from Advisor report R: objects at\n"
        "                     fast-guided sites start with mature hotness, stranded ones\n"
        "                     are promoted at the first evaluation (requires --online)\n"
        "  --migration-log F  write applied migrations as CSV to F (one row per move,\n"
        "                     trailing '# summary' line; lintable artifact)\n");
    return args.has("help") ? 0 : 1;
  }

  const auto iterations = args.get_int_in_range("iterations", 0, 0, 1'000'000);
  if (!iterations) return cli::fail_usage(iterations.error());
  const auto pmem_dimms = args.get_int_in_range("pmem-dimms", 6, 1, 64);
  if (!pmem_dimms) return cli::fail_usage(pmem_dimms.error());
  const auto dram_capacity = args.get_bytes("dram-capacity", 12ull << 30);
  if (!dram_capacity) return cli::fail_usage(dram_capacity.error());
  // Flag-combination rules (docs/cli.md): bad combinations are usage
  // errors (exit 2) with a one-line reason, uniformly.
  if (args.has("from-report") && !args.has("online")) {
    return cli::fail_usage("--from-report seeds the online policy and requires --online");
  }
  if (args.has("migration-log") && !args.has("online")) {
    return cli::fail_usage("--migration-log records online migrations and requires --online");
  }

  apps::AppOptions app_opt;
  app_opt.iterations = static_cast<int>(*iterations);
  runtime::Workload workload;
  try {
    workload = apps::make_app(args.get("app"), app_opt);
  } catch (const std::exception& e) {
    return cli::fail(e.what());
  }

  // Fresh ASLR bases: the production process is not the profiling one.
  Rng aslr_rng(0xA51);
  workload.modules->assign_bases(/*aslr=*/true, aslr_rng);

  const auto system = memsim::paper_system(static_cast<int>(*pmem_dimms));
  if (!system) return cli::fail(system.error());

  const auto report = flexmalloc::load_report(args.get("report"), *workload.modules);
  if (!report) return cli::fail_load(args.get("report"), report.error());

  auto fm_heaps = std::vector<flexmalloc::HeapSpec>{
      {"dram", *dram_capacity},
      {"pmem", system->tier(system->fallback_index()).capacity()}};
  // The match cache memoizes repeated lookups of hot call stacks; it
  // changes overhead accounting but never placement.
  flexmalloc::MatcherOptions matcher_options;
  matcher_options.match_cache = true;
  auto fm = flexmalloc::FlexMalloc::create(std::move(fm_heaps), *report,
                                           workload.symbols.get(), matcher_options);
  if (!fm) return cli::fail(fm.error());

  runtime::AppDirectMode mode(&*system, &*fm);
  runtime::EngineOptions engine_options;

  std::optional<online::OnlinePolicyConfig> online_policy;
  if (args.has("online")) {
    auto policy = online::OnlinePolicyConfig::load(args.get("online"));
    if (!policy) return cli::fail(policy.error());
    online_policy = *policy;
    engine_options.online_policy = &*online_policy;
  }

  std::optional<runtime::GuidanceSeed> guidance;
  if (args.has("from-report")) {
    const auto seed_report = flexmalloc::load_report(args.get("from-report"), *workload.modules);
    if (!seed_report) return cli::fail_load(args.get("from-report"), seed_report.error());
    auto seed = runtime::GuidanceSeed::build(workload, *seed_report);
    if (!seed) return cli::fail(seed.error());
    guidance = std::move(*seed);
    engine_options.guidance = &*guidance;
  }

  runtime::ExecutionEngine engine(&*system, engine_options);

  // Real elapsed time of the simulator itself — reported to the user,
  // never fed into simulated timestamps or serialized artifacts.
  const auto wall_start = std::chrono::steady_clock::now();  // srclint-ok: det-wallclock
  const auto production = engine.run(workload, mode);
  const auto wall_end = std::chrono::steady_clock::now();  // srclint-ok: det-wallclock
  if (!production) return cli::fail(production.error());

  const auto baseline = core::run_memory_mode(workload, *system);
  if (!baseline) return cli::fail(baseline.error());

  if (args.has("migration-log") &&
      !write_migration_log(args.get("migration-log"), *production)) {
    return cli::fail("could not write migration log: " + args.get("migration-log"));
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();

  std::printf("%s app-direct via FlexMalloc:\n", workload.name.c_str());
  std::printf("  production : %8.3f s\n", static_cast<double>(production->total_ns) * 1e-9);
  std::printf("  memory mode: %8.3f s\n", static_cast<double>(baseline->total_ns) * 1e-9);
  std::printf("  speedup    : %8.2fx\n", production->speedup_over(*baseline));
  std::printf("  replay     : %.1f ms wall clock\n", wall_ms);
  std::printf("  matching   : %llu lookups, %llu hits, %llu OOM redirects\n",
              static_cast<unsigned long long>(fm->matcher().lookups()),
              static_cast<unsigned long long>(fm->matcher().hits()),
              static_cast<unsigned long long>(fm->oom_redirects()));
  for (const auto& s : fm->stats()) {
    std::printf("  tier %-6s %8llu allocations, high water %llu MB\n", s.tier.c_str(),
                static_cast<unsigned long long>(s.allocations),
                static_cast<unsigned long long>(s.high_water >> 20));
  }
  if (online_policy) {
    std::printf("  online     : %llu migrations (%llu partial, %llu cancelled), %llu MB moved, "
                "%.1f ms migration time\n",
                static_cast<unsigned long long>(production->migrations),
                static_cast<unsigned long long>(production->migrations_partial),
                static_cast<unsigned long long>(production->migrations_cancelled),
                static_cast<unsigned long long>(production->migrated_bytes >> 20),
                production->migration_ns * 1e-6);
  }
  if (guidance) {
    std::printf("  guidance   : %zu of %zu sites matched from %s\n", guidance->matched_sites,
                workload.sites.size(), args.get("from-report").c_str());
  }
  return 0;
}
