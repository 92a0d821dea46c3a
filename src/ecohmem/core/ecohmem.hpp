#pragma once

/// \file ecohmem.hpp
/// The end-to-end ecoHMEM workflow (Fig. 1 of the paper):
///
///   production binary --Extrae/profiler--> trace
///     --Paramedir/analyzer--> per-object records
///     --HMem Advisor--> placement report (base or bandwidth-aware)
///     --FlexMalloc--> production run on the same binary
///
/// This is the library's primary entry point. The profiling run executes
/// under the memory-mode baseline (placement-independent LLC misses are
/// all the Advisor needs), which also yields the baseline metrics every
/// evaluation compares against.
///
/// Each stage has one wiring, shared with the command-line tools:
///   - profile: `run_memory_mode` with the profiler as observer
///     (ecohmem-profile);
///   - Advisor: `advisor::run_stage` over `advisor_config(system, ...)`
///     (ecohmem-advisor and ecohmem-serve call run_stage too);
///   - FlexMalloc: `make_flexmalloc` (ecohmem-run), reached here through
///     the render → parse → FlexMalloc → app-direct replay helper behind
///     `run_with_placement`.

#include <optional>
#include <string>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "ecohmem/runtime/workload.hpp"

namespace ecohmem::core {

struct WorkflowOptions {
  /// DRAM budget handed to the Advisor (the paper's 4/8/12 GB knob).
  Bytes dram_limit = 12ull * 1024 * 1024 * 1024;

  /// Store-miss coefficient; 0 = the "Loads" configuration of Fig. 6,
  /// 1 = "Loads+stores" (§V).
  double store_coef = 0.0;

  /// Apply the bandwidth-aware post-pass (§VII) on top of the base
  /// density placement.
  bool bandwidth_aware = false;

  /// Report/matching format (§VI, §VIII-D). Human-readable additionally
  /// charges per-rank debug info against the DRAM budget.
  advisor::ReportFormat format = advisor::ReportFormat::kBom;

  /// PEBS-equivalent sampling rate for the profiling run.
  double sample_rate_hz = 100.0;
  std::uint64_t profile_seed = 0x5eed;
};

struct WorkflowResult {
  analyzer::AnalysisResult analysis;
  advisor::Placement placement;
  std::string report_text;
  std::optional<advisor::BandwidthAwareResult> bandwidth_aware;

  runtime::RunMetrics baseline_metrics;    ///< memory-mode profiling run
  runtime::RunMetrics production_metrics;  ///< app-direct run via FlexMalloc

  /// DRAM budget actually used by the Advisor (reduced by debug info for
  /// human-readable reports, §VIII-D).
  Bytes effective_dram_limit = 0;

  [[nodiscard]] double speedup() const {
    return production_metrics.speedup_over(baseline_metrics);
  }
};

/// Runs the full workflow. `engine_options.observer` is managed
/// internally and must be null.
[[nodiscard]] Expected<WorkflowResult> run_workflow(
    const runtime::Workload& workload, const memsim::MemorySystem& system,
    const WorkflowOptions& options = {}, runtime::EngineOptions engine_options = {});

/// Runs the workload under memory mode (the baseline): DRAM tier 0
/// caches the fallback tier. With `engine_options.observer` set to a
/// profiler this is the profiling run.
[[nodiscard]] Expected<runtime::RunMetrics> run_memory_mode(
    const runtime::Workload& workload, const memsim::MemorySystem& system,
    runtime::EngineOptions engine_options = {});

/// The Advisor config for `system`: one tier per memory tier in the
/// system's performance order, the fastest capped at `dram_limit` and
/// the others at their capacity, each charging loads at 1 and stores at
/// `store_coef`; the system's fallback tier is the config's.
[[nodiscard]] advisor::AdvisorConfig advisor_config(const memsim::MemorySystem& system,
                                                    Bytes dram_limit, double store_coef);

/// FlexMalloc with one heap per tier of `system`, the fastest capped at
/// `dram_capacity` and the others at their capacity.
[[nodiscard]] Expected<flexmalloc::FlexMalloc> make_flexmalloc(
    const memsim::MemorySystem& system, const flexmalloc::ParsedReport& report,
    Bytes dram_capacity, const bom::SymbolTable* symbols,
    flexmalloc::MatcherOptions matcher_options = {});

/// Runs the workload app-direct with a given placement (used for ProfDP
/// variants and manual placements). The placement travels through a real
/// report + FlexMalloc matching: the helper run_workflow's production run
/// uses.
[[nodiscard]] Expected<runtime::RunMetrics> run_with_placement(
    const runtime::Workload& workload, const memsim::MemorySystem& system,
    const advisor::Placement& placement, Bytes dram_capacity,
    advisor::ReportFormat format = advisor::ReportFormat::kBom,
    runtime::EngineOptions engine_options = {});

/// Library version string.
[[nodiscard]] const char* version();

}  // namespace ecohmem::core
