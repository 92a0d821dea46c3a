#pragma once

/// Shared helpers for the reproduction benchmarks (one binary per paper
/// table/figure; see DESIGN.md §4). Each binary prints the rows/series of
/// its table or figure; EXPERIMENTS.md records paper-vs-measured.

#include <cstdio>
#include <string>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/guidance.hpp"

namespace ecohmem::bench {

inline constexpr Bytes kGiB = 1024ull * 1024 * 1024;

/// C_store used by every "Loads+stores" configuration: the store channel
/// samples 8-byte store instructions, a line carries 8 of them.
inline constexpr double kStoreCoef = 0.125;

struct NamedRun {
  std::string label;
  double speedup = 0.0;
  bool ok = false;
  std::string error;
};

/// Runs the full workflow and reports speedup over the memory-mode
/// baseline embedded in the result.
inline NamedRun run_config(const runtime::Workload& w, const memsim::MemorySystem& sys,
                           std::string label, Bytes dram_limit, double store_coef,
                           bool bw_aware,
                           advisor::ReportFormat format = advisor::ReportFormat::kBom) {
  core::WorkflowOptions opt;
  opt.dram_limit = dram_limit;
  opt.store_coef = store_coef;
  opt.bandwidth_aware = bw_aware;
  opt.format = format;
  NamedRun run;
  run.label = std::move(label);
  const auto result = core::run_workflow(w, sys, opt);
  if (!result) {
    run.error = result.error();
    return run;
  }
  run.speedup = result->speedup();
  run.ok = true;
  return run;
}

/// Replays the workflow's placement under the online policy seeded from
/// the workflow's own advisor report, exactly as
/// `ecohmem-run --online P --from-report R` sets it up (docs/online.md).
inline Expected<runtime::RunMetrics> run_seeded_online(
    const runtime::Workload& w, const memsim::MemorySystem& sys,
    const core::WorkflowResult& workflow, Bytes dram_limit,
    const online::OnlinePolicyConfig& policy) {
  const auto report = flexmalloc::parse_report(workflow.report_text, *w.modules);
  if (!report) return unexpected(report.error());
  const auto guidance = runtime::GuidanceSeed::build(w, *report);
  if (!guidance) return unexpected(guidance.error());
  runtime::EngineOptions options;
  options.online_policy = &policy;
  options.guidance = &*guidance;
  return core::run_with_placement(w, sys, workflow.placement, dram_limit,
                                  advisor::ReportFormat::kBom, options);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

}  // namespace ecohmem::bench
