#include "ecohmem/core/ecohmem.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ecohmem/advisor/stage.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/profiler/profiler.hpp"

namespace ecohmem::core {

namespace {

/// Renders `placement`'s report into `report_text`, parses it back and
/// replays `workload` app-direct through FlexMalloc: the production run.
Expected<runtime::RunMetrics> replay_report(const runtime::Workload& workload,
                                            const memsim::MemorySystem& system,
                                            const advisor::Placement& placement,
                                            Bytes dram_capacity, advisor::ReportFormat format,
                                            const runtime::EngineOptions& engine_options,
                                            std::string& report_text) {
  auto rendered =
      advisor::report_to_string(placement, format, *workload.modules, workload.symbols.get());
  if (!rendered) return unexpected(rendered.error());
  report_text = std::move(*rendered);

  auto parsed = flexmalloc::parse_report(report_text, *workload.modules);
  if (!parsed) return unexpected(parsed.error());

  auto fm = make_flexmalloc(system, *parsed, dram_capacity, workload.symbols.get());
  if (!fm) return unexpected(fm.error());

  runtime::AppDirectMode mode(&system, &*fm);
  runtime::ExecutionEngine engine(&system, engine_options);
  return engine.run(workload, mode);
}

}  // namespace

const char* version() { return "1.0.0"; }

Expected<runtime::RunMetrics> run_memory_mode(const runtime::Workload& workload,
                                              const memsim::MemorySystem& system,
                                              runtime::EngineOptions engine_options) {
  const std::size_t pmem = system.fallback_index();
  if (system.tier_count() < 2 || pmem == 0) {
    return unexpected("memory mode needs a fast tier (0) and a distinct fallback tier");
  }
  // On the heap, like the profile trace kept in run_workflow: see there.
  const auto mode = std::make_unique<runtime::MemoryModeExec>(
      &system, 0, pmem, memsim::DramCacheModel(system.tier(0).capacity()));
  runtime::ExecutionEngine engine(&system, engine_options);
  return engine.run(workload, *mode);
}

advisor::AdvisorConfig advisor_config(const memsim::MemorySystem& system, Bytes dram_limit,
                                      double store_coef) {
  advisor::AdvisorConfig config;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    advisor::TierPolicy policy;
    policy.name = system.tier(i).name();
    policy.limit = i == 0 ? dram_limit : system.tier(i).capacity();
    policy.load_coef = 1.0;
    policy.store_coef = store_coef;
    policy.order = static_cast<int>(i);
    policy.fallback = i == system.fallback_index();
    config.tiers.push_back(std::move(policy));
  }
  return config;
}

Expected<flexmalloc::FlexMalloc> make_flexmalloc(const memsim::MemorySystem& system,
                                                 const flexmalloc::ParsedReport& report,
                                                 Bytes dram_capacity,
                                                 const bom::SymbolTable* symbols,
                                                 flexmalloc::MatcherOptions matcher_options) {
  std::vector<flexmalloc::HeapSpec> heaps;
  for (std::size_t i = 0; i < system.tier_count(); ++i) {
    heaps.push_back({system.tier(i).name(), i == 0 ? dram_capacity : system.tier(i).capacity()});
  }
  return flexmalloc::FlexMalloc::create(std::move(heaps), report, symbols, matcher_options);
}

Expected<runtime::RunMetrics> run_with_placement(const runtime::Workload& workload,
                                                 const memsim::MemorySystem& system,
                                                 const advisor::Placement& placement,
                                                 Bytes dram_capacity,
                                                 advisor::ReportFormat format,
                                                 runtime::EngineOptions engine_options) {
  std::string report_text;
  return replay_report(workload, system, placement, dram_capacity, format, engine_options,
                       report_text);
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

  runtime::EngineOptions profile_options = engine_options;
  profile_options.observer = &prof;
  auto baseline = run_memory_mode(workload, system, profile_options);
  if (!baseline) return unexpected("profiling run failed: " + baseline.error());
  result.baseline_metrics = std::move(*baseline);

  // --- 2. Trace analysis (Paramedir role). The trace outlives the
  // production run: freed earlier (or with the memory mode off the
  // heap), glibc trims the heap top under the replays' transient buffers
  // and faults them back in, ~200K more page faults on perfbench's
  // fig6-pipeline set-up.
  const trace::Trace profile_trace = prof.take_trace();
  auto analysis = analyzer::analyze(profile_trace);
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

  auto advice = advisor::run_stage(result.analysis,
                                   advisor_config(system, dram_limit, options.store_coef),
                                   options.bandwidth_aware);
  if (!advice) return unexpected("advisor stage failed: " + advice.error());
  result.placement = advice->placement;
  if (options.bandwidth_aware) result.bandwidth_aware = std::move(*advice);

  // --- 4. Report out, FlexMalloc in (production run).
  auto production = replay_report(workload, system, result.placement, dram_limit,
                                  options.format, engine_options, result.report_text);
  if (!production) return unexpected("production run failed: " + production.error());
  result.production_metrics = std::move(*production);

  return result;
}

}  // namespace ecohmem::core
