// Tests for the ecohmem-lint file driver (check::lint_files): artifact
// loading, loader pseudo-diagnostics, and one end-to-end clean pipeline
// (profiler -> trace -> analyzer -> advisor -> report) that must lint
// with zero findings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/site_report.hpp"
#include "ecohmem/check/lint.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::check {
namespace {

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  out << text;
}

bool has_rule(const LintResult& result, std::string_view id, Severity severity) {
  for (const auto& d : result.diagnostics) {
    if (d.rule == id && d.severity == severity) return true;
  }
  return false;
}

/// A small two-object workload, profiled for real through the execution
/// engine (the same path ecohmem-profile takes).
runtime::Workload profiled_workload() {
  runtime::WorkloadBuilder b("lint-e2e");
  const auto mod = b.add_module("lint.x", 1 << 20, 0);
  const auto hot_site = b.add_site(mod, "hot", "lint.cc", 10);
  const auto cold_site = b.add_site(mod, "cold", "lint.cc", 20);
  const auto hot =
      b.add_object(hot_site, 1ull << 26, runtime::AccessPattern::kRandom, 0.1, 0.5, 0.0);
  const auto cold =
      b.add_object(cold_site, 1ull << 26, runtime::AccessPattern::kRandom, 0.1, 0.5, 0.0);
  const auto k = b.add_kernel("kernel", 1e8, 1e7,
                              {runtime::KernelAccess{hot, 9e6, 0.0, 1 << 26},
                               runtime::KernelAccess{cold, 1e6, 2e6, 1 << 26}});
  b.alloc(hot).alloc(cold);
  for (int i = 0; i < 3; ++i) b.run_kernel(k);
  b.free(hot).free(cold);
  return b.build();
}

TEST(LintFiles, CleanPipelineEndToEnd) {
  // Profile the workload through the engine, exactly as ecohmem-profile does.
  const auto workload = profiled_workload();
  const auto sys = *memsim::paper_system(6);
  profiler::Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&sys, eopt);
  runtime::FixedTierMode mode(&sys, 1);
  ASSERT_TRUE(engine.run(workload, mode).has_value());
  const trace::Trace t = prof.take_trace();

  const std::string trace_path = tmp_path("lint_e2e.trc");
  const std::string sites_path = tmp_path("lint_e2e_sites.csv");
  const std::string report_path = tmp_path("lint_e2e_report.txt");
  const std::string config_path = tmp_path("lint_e2e_config.ini");

  ASSERT_TRUE(trace::save_trace(trace_path, t, *workload.modules).ok());

  const auto analysis = analyzer::analyze(t);
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  ASSERT_TRUE(analyzer::save_site_csv(sites_path, *analysis, *workload.modules).ok());

  const auto cfg = advisor::AdvisorConfig::dram_pmem(1ull << 30, 0.0);
  write_file(config_path, cfg.to_config_text());

  const auto placement = advisor::place_by_density(analysis->sites, cfg);
  ASSERT_TRUE(placement.has_value()) << placement.error();
  ASSERT_TRUE(advisor::save_report(report_path, *placement, advisor::ReportFormat::kBom,
                                   *workload.modules)
                  .ok());

  LintInputs inputs;
  inputs.trace_path = trace_path;
  inputs.sites_path = sites_path;
  inputs.report_path = report_path;
  inputs.config_path = config_path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->ok());
  EXPECT_TRUE(result->diagnostics.empty())
      << result->diagnostics.front().rule << ": " << result->diagnostics.front().message;
  EXPECT_GE(result->rules_run.size(), 15u);
}

TEST(LintFiles, NothingToLintIsAHardError) {
  const auto result = lint_files(LintInputs{});
  EXPECT_FALSE(result.has_value());
}

TEST(LintFiles, MissingTraceIsALoadDiagnostic) {
  LintInputs inputs;
  inputs.trace_path = tmp_path("no_such.trc");
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "trace-load", Severity::kError));
}

TEST(LintFiles, DoubleFreeTraceFiresPairingRule) {
  trace::Trace t;
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);
  const auto site = t.stacks.intern(bom::CallStack{{{0, 0x100}}});
  t.events.emplace_back(trace::AllocEvent{100, 1, 0x1000, 64, site, trace::AllocKind::kMalloc});
  t.events.emplace_back(trace::FreeEvent{200, 1});
  t.events.emplace_back(trace::FreeEvent{300, 1});

  const std::string path = tmp_path("lint_doublefree.trc");
  ASSERT_TRUE(trace::save_trace(path, t, modules).ok());

  LintInputs inputs;
  inputs.trace_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "trace-alloc-pairing", Severity::kError));
  // The analyzer replay fails on the malformed trace; the driver notes it
  // and skips analyzer-level rules instead of aborting the lint.
  EXPECT_TRUE(has_rule(*result, "trace-load", Severity::kInfo));
}

TEST(LintFiles, NegativeCoefficientConfigFiresConfigRule) {
  const std::string path = tmp_path("lint_negcoef.ini");
  write_file(path,
             "[memory]\nname = dram\nlimit = 1073741824\nload_coef = -2.5\n\n"
             "[memory]\nname = pmem\nlimit = 1099511627776\nfallback = true\norder = 1\n");
  LintInputs inputs;
  inputs.config_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "config-coefficients", Severity::kError));
}

TEST(LintFiles, MalformedReportSizeIsALoadDiagnostic) {
  const std::string path = tmp_path("lint_badsize.txt");
  write_file(path, "# format = bom\napp.x!0x100 @ dram # size=18446744073709551616\n");
  LintInputs inputs;
  inputs.report_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "report-load", Severity::kError));
}

TEST(LintFiles, DisableSilencesLoaderPseudoRules) {
  LintInputs inputs;
  inputs.trace_path = tmp_path("no_such_disabled.trc");
  CheckOptions options;
  options.disabled_rules = {"trace-load"};
  const auto result = lint_files(inputs, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  for (const auto& d : result->diagnostics) EXPECT_NE(d.rule, "trace-load");
}

TEST(LintFiles, PseudoRuleIdsAreExported) {
  const auto& ids = pseudo_rule_ids();
  EXPECT_NE(std::find(ids.begin(), ids.end(), "trace-load"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "report-load"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "trace-index-load"), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), "trace-alloc-pairing"), ids.end());
}

TEST(LintFiles, ReportOnlyLintUsesSyntheticModules) {
  const std::string path = tmp_path("lint_reportonly.txt");
  write_file(path,
             "# format = bom\n# fallback = pmem\n"
             "app.x!0x100 @ dram # size=64\n"
             "app.x!0x100 @ pmem # size=64\n");
  LintInputs inputs;
  inputs.report_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  // Without a trace, module identities come from the report itself (noted
  // as info) and structural rules still run: the conflicting duplicate
  // entry is an error.
  EXPECT_TRUE(has_rule(*result, "report-load", Severity::kInfo));
  EXPECT_TRUE(has_rule(*result, "report-duplicate-entry", Severity::kError));
}

TEST(LintFiles, StaleSitesCsvFiresUnknownStack) {
  trace::Trace t;
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);
  const auto site = t.stacks.intern(bom::CallStack{{{0, 0x100}}});
  t.events.emplace_back(trace::AllocEvent{100, 1, 0x1000, 64, site, trace::AllocKind::kMalloc});
  t.events.emplace_back(trace::FreeEvent{200, 1});
  const std::string trace_path = tmp_path("lint_stale.trc");
  ASSERT_TRUE(trace::save_trace(trace_path, t, modules).ok());

  const std::string csv_path = tmp_path("lint_stale_sites.csv");
  write_file(csv_path,
             "callstack,allocs,max_size,peak_live,load_misses,store_misses,"
             "avg_load_latency_ns,exec_bw_gbs,alloc_bw_gbs,exec_sys_bw_gbs,"
             "first_alloc_ns,last_free_ns,mean_lifetime_ns,has_writes\n"
             "\"app.x!0xdddd\",1,64,64,0,0,0,0,0,0,100,200,100,0\n");

  LintInputs inputs;
  inputs.trace_path = trace_path;
  inputs.sites_path = csv_path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "sites-unknown-stack", Severity::kError));
}

/// Writes a small valid v3 trace and returns its bytes.
std::string small_v3_bytes(const std::string& path) {
  trace::Trace t;
  bom::ModuleTable modules;
  modules.add_module("app.x", 1 << 20);
  const auto site = t.stacks.intern(bom::CallStack{{{0, 0x100}}});
  for (std::uint64_t i = 0; i < 64; ++i) {
    t.events.emplace_back(
        trace::AllocEvent{10 * i, i + 1, 0x1000 + (i << 12), 64, site, trace::AllocKind::kMalloc});
    t.events.emplace_back(trace::FreeEvent{10 * i + 5, i + 1});
  }
  trace::TraceWriteOptions opt;
  opt.block_events = 16;
  EXPECT_TRUE(trace::save_trace(path, t, modules, opt).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(LintFiles, ValidV3TraceRunsIndexRuleClean) {
  const std::string path = tmp_path("lint_v3_clean.trc");
  small_v3_bytes(path);
  LintInputs inputs;
  inputs.trace_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->ok());
  EXPECT_NE(std::find(result->rules_run.begin(), result->rules_run.end(), "trace-v3-index"),
            result->rules_run.end());
}

TEST(LintFiles, CorruptV3IndexFiresIndexRuleDespiteLoadFailure) {
  const std::string path = tmp_path("lint_v3_corrupt.trc");
  std::string bytes = small_v3_bytes(path);
  // Bump the first index entry's event count: the strict loader rejects
  // the trace (trace-load), but the lenient index view still reaches the
  // trace-v3-index rule, which pinpoints the sum mismatch.
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, bytes.data() + bytes.size() - 16, 8);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + footer_offset + 8, 8);
  ++count;
  std::memcpy(bytes.data() + footer_offset + 8, &count, 8);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  LintInputs inputs;
  inputs.trace_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_FALSE(result->ok());
  // The strict load failure degrades to a salvage-mode read (block 0 is
  // dropped: it decodes 16 of the 17 events the tampered index claims),
  // while trace-v3-index still pinpoints the sum mismatch and the
  // recovered coverage (112/129 < 0.9) fails the salvage gate.
  EXPECT_TRUE(has_rule(*result, "trace-load", Severity::kWarning));
  EXPECT_TRUE(has_rule(*result, "trace-v3-index", Severity::kError));
  EXPECT_TRUE(has_rule(*result, "trace-salvage-coverage", Severity::kError));
}

TEST(LintFiles, StructurallyUnreadableV3IndexIsALoadDiagnostic) {
  const std::string path = tmp_path("lint_v3_noindex.trc");
  std::string bytes = small_v3_bytes(path);
  // Destroy the trailer magic: the index cannot even be enumerated. The
  // salvage fallback recovers every event by sequential scan, so the
  // load and index diagnostics are warnings and the lint passes — the
  // damage is fully accounted, not fatal.
  bytes[bytes.size() - 1] = '?';
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  LintInputs inputs;
  inputs.trace_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->ok());
  EXPECT_TRUE(has_rule(*result, "trace-load", Severity::kWarning));
  EXPECT_TRUE(has_rule(*result, "trace-index-load", Severity::kWarning));
  EXPECT_TRUE(has_rule(*result, "trace-salvage-coverage", Severity::kWarning));
}

TEST(LintFiles, MigrationLogLintsCleanAloneAndWithPolicy) {
  const std::string log_path = tmp_path("lint_migration.csv");
  const std::string policy_path = tmp_path("lint_migration_policy.ini");
  write_file(log_path,
             "at_ns,object,from_tier,to_tier,bytes,offset,partial\n"
             "1000,7,1,0,4096,0,0\n"
             "2000,9,1,0,2097152,2097152,1\n"
             "# summary scheduled=2 applied=2 partial=1 cancelled=0 "
             "migrated_bytes=2101248\n");
  write_file(policy_path, "[online]\nchunk_bytes = 2MB\nhuge_object_bytes = 1GB\n");

  LintInputs inputs;
  inputs.migration_log_path = log_path;
  auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->ok());
  EXPECT_NE(std::find(result->rules_run.begin(), result->rules_run.end(),
                      "migration-conservation"),
            result->rules_run.end());

  // The alignment rule only joins once the policy INI is also given.
  inputs.online_path = policy_path;
  result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->ok());
  EXPECT_NE(std::find(result->rules_run.begin(), result->rules_run.end(),
                      "migration-chunk-alignment"),
            result->rules_run.end());
}

TEST(LintFiles, MalformedMigrationLogIsALoadDiagnostic) {
  const std::string path = tmp_path("lint_migration_bad.csv");
  write_file(path, "at_ns,object\n1,2\n");
  LintInputs inputs;
  inputs.migration_log_path = path;
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "migration-log-load", Severity::kError));
}

TEST(LintFiles, MissingMigrationLogIsALoadDiagnostic) {
  LintInputs inputs;
  inputs.migration_log_path = tmp_path("no_such_migration.csv");
  const auto result = lint_files(inputs);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_FALSE(result->ok());
  EXPECT_TRUE(has_rule(*result, "migration-log-load", Severity::kError));
}

}  // namespace
}  // namespace ecohmem::check
