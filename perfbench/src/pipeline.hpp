#pragma once

/// \file pipeline.hpp
/// The pipeline stages the workloads share, each call wrapped in its
/// layer's span: the advisor passes plus report rendering, FlexMalloc
/// set-up, the incremental fold measured on its own, and the replay of
/// a report that gives a simulated speedup.

#include <memory>
#include <string>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/placement.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/runtime/mode.hpp"
#include "ecohmem/runtime/workload.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {

/// The paper's configuration for every workload: 12 GiB DRAM limit and
/// C_store = 0.125 (Loads+stores), bandwidth-aware.
inline constexpr ecohmem::Bytes kDramLimit = 12ull << 30;
inline constexpr double kStoreCoef = 0.125;

/// One Advisor tier per memory-system tier, as core::run_workflow builds
/// them: DRAM capped at `dram_limit`, the rest at capacity.
[[nodiscard]] ecohmem::advisor::AdvisorConfig tier_config(const ecohmem::memsim::MemorySystem& sys,
                                                          ecohmem::Bytes dram_limit);

/// Memory mode for `sys` (DRAM caching the fallback tier).
[[nodiscard]] std::unique_ptr<ecohmem::runtime::MemoryModeExec> memory_mode(
    const ecohmem::memsim::MemorySystem& sys);

/// FlexMalloc with one heap per tier, DRAM capped at `dram_limit`.
[[nodiscard]] ecohmem::Expected<ecohmem::flexmalloc::FlexMalloc> make_flexmalloc(
    const ecohmem::memsim::MemorySystem& sys, const ecohmem::flexmalloc::ParsedReport& report,
    ecohmem::Bytes dram_limit, const ecohmem::bom::SymbolTable* symbols, bool match_cache);

/// The §IV-B density knapsack, the §VII bandwidth-aware pass (against
/// the analysis' observed peak) and the BOM report, each in its span.
/// `moves` counts the placements the bandwidth-aware pass changed.
struct Advice {
  std::string report;
  std::size_t moves = 0;
};
[[nodiscard]] ecohmem::Expected<Advice> advise(const ecohmem::analyzer::AnalysisResult& analysis,
                                               const ecohmem::advisor::AdvisorConfig& config,
                                               const std::string& dram_tier,
                                               const std::string& pmem_tier,
                                               const ecohmem::bom::ModuleTable& modules,
                                               const ecohmem::bom::SymbolTable* symbols);

/// Feeds every block of `reader` to an IncrementalAggregator and
/// finalizes it, recording analyzer.fold/finalize spans; fails unless
/// the result has `expect_sites` sites.
[[nodiscard]] ecohmem::Status fold_pass(const ecohmem::trace::TraceReader& reader,
                                        const ecohmem::analyzer::AnalyzerOptions& options,
                                        std::size_t expect_sites);

/// Replays `report_text` app-direct on `app` and returns memory-mode
/// time over production time.
[[nodiscard]] ecohmem::Expected<double> simulate_report(const ecohmem::runtime::Workload& app,
                                                        const ecohmem::memsim::MemorySystem& sys,
                                                        const std::string& report_text,
                                                        ecohmem::Bytes dram_limit);

/// Share of sample weight the analysis attributed to a live object.
[[nodiscard]] double attributed_ratio(const ecohmem::analyzer::AnalysisResult& analysis);

/// FNV-1a of a report, for cross-op identity checks.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// FlexMalloc's counters for one replay, into the op's layer values.
void record_flexmalloc(const ecohmem::flexmalloc::FlexMalloc& fm, OpResult& out);

/// Runs the placement query `fn` and records its latency in `out`. The
/// host's speed flips within a fraction of a second, faster than the
/// reference runs around a whole op can follow a query of a few ms, so
/// untraced runs bracket the query itself with reference runs (their
/// time is taken out of the op's). Traced runs time the query alone.
template <class Fn>
auto time_query(OpResult& out, Fn&& fn) {
  const bool bracket = !tracer().enabled();
  const auto reference = [&out] {
    const auto start = Clock::now();
    const double ms = reference_ms();
    out.reference_ms_in_op += ms_since(start);
    return ms;
  };
  const double before = bracket ? reference() : 0.0;
  const auto start = Clock::now();
  auto result = fn();
  out.query_ms.push_back(ms_since(start));
  if (bracket) out.query_reference_ms.push_back(0.5 * (before + reference()));
  return result;
}

}  // namespace perfbench
