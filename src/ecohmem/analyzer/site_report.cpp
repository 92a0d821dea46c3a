#include "ecohmem/analyzer/site_report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "ecohmem/bom/format.hpp"
#include "ecohmem/common/file.hpp"
#include "ecohmem/common/strings.hpp"

namespace ecohmem::analyzer {

namespace {

std::vector<const SiteRecord*> sorted_sites(const AnalysisResult& analysis,
                                            const SiteReportOptions& options) {
  std::vector<const SiteRecord*> sites;
  sites.reserve(analysis.sites.size());
  for (const auto& s : analysis.sites) sites.push_back(&s);

  const auto key = options.sort;
  std::stable_sort(sites.begin(), sites.end(), [key](const auto* a, const auto* b) {
    switch (key) {
      case SiteReportOptions::Sort::kSize:
        return std::max(a->peak_live_bytes, a->max_size) >
               std::max(b->peak_live_bytes, b->max_size);
      case SiteReportOptions::Sort::kBandwidth:
        return a->exec_bw_gbs > b->exec_bw_gbs;
      case SiteReportOptions::Sort::kFirstAlloc:
        return a->first_alloc < b->first_alloc;
      case SiteReportOptions::Sort::kLoadMisses:
        break;
    }
    return a->load_misses > b->load_misses;
  });
  if (options.top > 0 && sites.size() > options.top) sites.resize(options.top);
  return sites;
}

}  // namespace

void write_site_table(std::ostream& out, const AnalysisResult& analysis,
                      const bom::ModuleTable& modules, const SiteReportOptions& options) {
  out << std::left << std::setw(48) << "call stack" << std::right << std::setw(8) << "allocs"
      << std::setw(12) << "peak size" << std::setw(12) << "load miss" << std::setw(12)
      << "stores" << std::setw(10) << "bw(MB/s)" << std::setw(11) << "life(s)" << '\n';
  for (const auto* s : sorted_sites(analysis, options)) {
    std::string stack = bom::format_bom(s->callstack, modules);
    if (stack.size() > 47) stack = stack.substr(0, 44) + "...";
    out << std::left << std::setw(48) << stack << std::right << std::setw(8) << s->alloc_count
        << std::setw(12) << strings::format_bytes(std::max(s->peak_live_bytes, s->max_size))
        << std::setw(12) << std::scientific << std::setprecision(2) << s->load_misses
        << std::setw(12) << s->store_misses << std::fixed << std::setprecision(1)
        << std::setw(10) << s->exec_bw_gbs * 1000.0 << std::setw(11)
        << s->mean_lifetime_ns * 1e-9 << '\n';
  }
  out << "sites: " << analysis.sites.size()
      << "  peak system bandwidth: " << std::setprecision(2) << analysis.observed_peak_bw_gbs
      << " GB/s  trace span: " << static_cast<double>(analysis.trace_end) * 1e-9 << " s\n";
  if (analysis.coverage.salvaged) {
    out << "coverage: " << analysis.coverage.events_seen << "/"
        << analysis.coverage.events_declared << " events (salvaged trace; partial data)\n";
  }
}

void write_site_csv(std::ostream& out, const AnalysisResult& analysis,
                    const bom::ModuleTable& modules) {
  // Round-trippable doubles: at the default 6-significant-digit precision
  // the exported miss counts drift from the trace's sampled mass, which
  // the ecohmem-lint cross-checks (sites-misses-exceed-trace) detect.
  const auto saved_precision = out.precision(17);
  // Salvaged analyses announce their coverage ahead of the header so a
  // consumer can never mistake partial data for a full profile. The
  // comment form keeps plain-CSV tooling working (sites_csv.cpp skips
  // and parses '#' lines); full-coverage strict runs stay byte-stable.
  if (analysis.coverage.salvaged) {
    out << "# coverage: events_seen=" << analysis.coverage.events_seen
        << " events_declared=" << analysis.coverage.events_declared << " salvaged=1\n";
  }
  out << kSiteCsvHeader << '\n';
  for (const auto& s : analysis.sites) {
    out << '"' << bom::format_bom(s.callstack, modules) << '"' << ',' << s.alloc_count << ','
        << s.max_size << ',' << s.peak_live_bytes << ',' << s.load_misses << ','
        << s.store_misses << ',' << s.avg_load_latency_ns << ',' << s.exec_bw_gbs << ','
        << s.alloc_time_system_bw_gbs << ',' << s.exec_time_system_bw_gbs << ','
        << s.first_alloc << ',' << s.last_free << ',' << s.mean_lifetime_ns << ','
        << (s.has_writes ? 1 : 0) << '\n';
  }
  out.precision(saved_precision);
}

void write_function_csv(std::ostream& out, const AnalysisResult& analysis) {
  out << "function,load_samples,avg_load_latency_ns\n";
  for (const auto& f : analysis.functions) {
    out << '"' << f.name << '"' << ',' << f.load_samples << ',' << f.avg_load_latency_ns
        << '\n';
  }
}

std::string site_table_to_string(const AnalysisResult& analysis,
                                 const bom::ModuleTable& modules,
                                 const SiteReportOptions& options) {
  std::ostringstream out;
  write_site_table(out, analysis, modules, options);
  return out.str();
}

Status save_site_csv(const std::string& path, const AnalysisResult& analysis,
                     const bom::ModuleTable& modules) {
  std::ostringstream out;
  write_site_csv(out, analysis, modules);
  return common::write_file(path, out.str());
}

}  // namespace ecohmem::analyzer
