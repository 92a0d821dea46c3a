#pragma once

/// \file site_report.hpp
/// Human/machine-readable rendering of an AnalysisResult — the
/// Paramedir-style summaries the workflow tools print and export.

#include <iosfwd>
#include <string>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::analyzer {

struct SiteReportOptions {
  /// Sort key for the text table.
  enum class Sort { kLoadMisses, kSize, kBandwidth, kFirstAlloc } sort = Sort::kLoadMisses;
  std::size_t top = 0;  ///< 0 = all sites
};

/// Fixed-width text table of the per-site records (call stacks rendered
/// in BOM format against `modules`).
void write_site_table(std::ostream& out, const AnalysisResult& analysis,
                      const bom::ModuleTable& modules, const SiteReportOptions& options = {});

/// Header row of the site CSV (without its newline); the checker's
/// parser (check/sites_csv.cpp) expects exactly this.
inline constexpr char kSiteCsvHeader[] =
    "callstack,allocs,max_size,peak_live,load_misses,store_misses,"
    "avg_load_latency_ns,exec_bw_gbs,alloc_bw_gbs,exec_sys_bw_gbs,"
    "first_alloc_ns,last_free_ns,mean_lifetime_ns,has_writes";

/// CSV export: one row per site with every aggregate column; stable
/// column order documented in the header row.
void write_site_csv(std::ostream& out, const AnalysisResult& analysis,
                    const bom::ModuleTable& modules);

/// CSV of the per-function load-sample profile (Table VII's latency
/// source): function,load_samples,avg_load_latency_ns.
void write_function_csv(std::ostream& out, const AnalysisResult& analysis);

/// Convenience wrappers.
[[nodiscard]] std::string site_table_to_string(const AnalysisResult& analysis,
                                               const bom::ModuleTable& modules,
                                               const SiteReportOptions& options = {});
[[nodiscard]] Status save_site_csv(const std::string& path, const AnalysisResult& analysis,
                                   const bom::ModuleTable& modules);

}  // namespace ecohmem::analyzer
