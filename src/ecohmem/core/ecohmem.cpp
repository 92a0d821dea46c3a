#include "ecohmem/core/ecohmem.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/profiler/profiler.hpp"

namespace ecohmem::core {

namespace {

/// Builds the memory-mode execution mode for `system` (DRAM tier 0 caches
/// the fallback PMem tier).
Expected<std::unique_ptr<runtime::MemoryModeExec>> make_memory_mode(
    const memsim::MemorySystem& system) {
  const std::size_t pmem = system.fallback_index();
  if (system.tier_count() < 2 || pmem == 0) {
    return unexpected("memory mode needs a fast tier (0) and a distinct fallback tier");
  }
  memsim::DramCacheModel cache_model(system.tier(0).capacity());
  return std::make_unique<runtime::MemoryModeExec>(&system, 0, pmem, cache_model);
}

Expected<flexmalloc::FlexMalloc> make_flexmalloc(const memsim::MemorySystem& system,
                                                 const flexmalloc::ParsedReport& report,
                                                 Bytes dram_capacity,
                                                 const bom::SymbolTable* symbols) {
  std::vector<flexmalloc::HeapSpec> heaps;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    flexmalloc::HeapSpec spec;
    spec.tier = system.tier(i).name();
    spec.capacity = i == 0 ? dram_capacity : system.tier(i).capacity();
    heaps.push_back(std::move(spec));
  }
  return flexmalloc::FlexMalloc::create(std::move(heaps), report, symbols);
}

}  // namespace

const char* version() { return "1.0.0"; }

Expected<runtime::RunMetrics> run_memory_mode(const runtime::Workload& workload,
                                              const memsim::MemorySystem& system,
                                              runtime::EngineOptions engine_options) {
  auto mode = make_memory_mode(system);
  if (!mode) return unexpected(mode.error());
  runtime::ExecutionEngine engine(&system, engine_options);
  return engine.run(workload, **mode);
}

Expected<runtime::RunMetrics> run_with_placement(const runtime::Workload& workload,
                                                 const memsim::MemorySystem& system,
                                                 const advisor::Placement& placement,
                                                 Bytes dram_capacity,
                                                 advisor::ReportFormat format,
                                                 runtime::EngineOptions engine_options) {
  auto report_text =
      advisor::report_to_string(placement, format, *workload.modules, workload.symbols.get());
  if (!report_text) return unexpected(report_text.error());

  auto parsed = flexmalloc::parse_report(*report_text, *workload.modules);
  if (!parsed) return unexpected(parsed.error());

  auto fm = make_flexmalloc(system, *parsed, dram_capacity, workload.symbols.get());
  if (!fm) return unexpected(fm.error());

  runtime::AppDirectMode mode(&system, &*fm);
  runtime::ExecutionEngine engine(&system, engine_options);
  return engine.run(workload, mode);
}

Expected<WorkflowResult> run_workflow(const runtime::Workload& workload,
                                      const memsim::MemorySystem& system,
                                      const WorkflowOptions& options,
                                      runtime::EngineOptions engine_options) {
  if (engine_options.observer != nullptr) {
    return unexpected("run_workflow manages the observer internally");
  }

  WorkflowResult result;

  // --- 1. Profiling run (memory mode) with the profiler attached.
  profiler::ProfilerOptions popt;
  popt.sample_rate_hz = options.sample_rate_hz;
  popt.seed = options.profile_seed;
  popt.sample_stores = true;
  profiler::Profiler prof(popt);

  {
    auto mode = make_memory_mode(system);
    if (!mode) return unexpected(mode.error());
    runtime::EngineOptions eopt = engine_options;
    eopt.observer = &prof;
    runtime::ExecutionEngine engine(&system, eopt);
    auto metrics = engine.run(workload, **mode);
    if (!metrics) return unexpected("profiling run failed: " + metrics.error());
    result.baseline_metrics = std::move(*metrics);
  }

  // --- 2. Trace analysis (Paramedir role).
  const trace::Trace profile_trace = prof.take_trace();
  analyzer::AnalyzerOptions aopt;
  aopt.peak_pmem_bw_gbs = system.tier(system.fallback_index()).spec().peak_read_gbs;
  auto analysis = analyzer::analyze(profile_trace, aopt);
  if (!analysis) return unexpected("trace analysis failed: " + analysis.error());
  result.analysis = std::move(*analysis);

  // --- 3. Advisor. Human-readable matching keeps per-rank debug info in
  // DRAM, shrinking the budget (§VIII-D).
  Bytes dram_limit = options.dram_limit;
  if (options.format == advisor::ReportFormat::kHumanReadable) {
    const Bytes debug_tax =
        workload.modules->total_debug_info() * static_cast<Bytes>(std::max(workload.ranks, 1));
    dram_limit = dram_limit > debug_tax ? dram_limit - debug_tax : dram_limit / 4;
  }
  result.effective_dram_limit = dram_limit;

  // One knapsack per tier, in system performance order; the fastest
  // tier's budget is the user's limit, the others use their capacity.
  advisor::AdvisorConfig config;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    advisor::TierPolicy policy;
    policy.name = system.tier(i).name();
    policy.limit = i == 0 ? dram_limit : system.tier(i).capacity();
    policy.load_coef = 1.0;
    policy.store_coef = options.store_coef;
    policy.order = static_cast<int>(i);
    policy.fallback = i == system.fallback_index();
    config.tiers.push_back(std::move(policy));
  }

  auto base = advisor::place_by_density(result.analysis.sites, config);
  if (!base) return unexpected("density placement failed: " + base.error());
  result.placement = std::move(*base);

  if (options.bandwidth_aware) {
    advisor::BandwidthAwareOptions bw = options.bw_options;
    if (!options.keep_bw_thresholds) {
      // Region thresholds are relative to the *observed* peak bandwidth of
      // the profiling run (Fig. 3 peaks at 1.3 GB/s and still classifies
      // objects as B_high, so "peak PMem bandwidth" is the workload's
      // peak, not the DIMMs').
      bw.peak_pmem_bw_gbs = result.analysis.observed_peak_bw_gbs;
      bw.dram_tier = system.tier(0).name();
      bw.pmem_tier = system.tier(system.fallback_index()).name();
    }
    auto refined = advisor::place_bandwidth_aware(result.analysis.sites,
                                                  std::move(result.placement), config, bw);
    if (!refined) return unexpected("bandwidth-aware placement failed: " + refined.error());
    result.placement = refined->placement;
    result.bandwidth_aware = std::move(*refined);
  }

  // --- 4. Report out, FlexMalloc in (production run).
  auto report_text = advisor::report_to_string(result.placement, options.format,
                                               *workload.modules, workload.symbols.get());
  if (!report_text) return unexpected(report_text.error());
  result.report_text = std::move(*report_text);

  auto parsed = flexmalloc::parse_report(result.report_text, *workload.modules);
  if (!parsed) return unexpected(parsed.error());

  auto fm = make_flexmalloc(system, *parsed, dram_limit, workload.symbols.get());
  if (!fm) return unexpected(fm.error());

  runtime::AppDirectMode mode(&system, &*fm);
  runtime::ExecutionEngine engine(&system, engine_options);
  auto production = engine.run(workload, mode);
  if (!production) return unexpected("production run failed: " + production.error());
  result.production_metrics = std::move(*production);

  return result;
}

}  // namespace ecohmem::core
