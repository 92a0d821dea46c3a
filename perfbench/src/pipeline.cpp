#include "pipeline.hpp"

#include <vector>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/runtime/engine.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace ecohmem;

advisor::AdvisorConfig tier_config(const memsim::MemorySystem& sys, Bytes dram_limit) {
  advisor::AdvisorConfig config;
  for (std::size_t i = 0; i < sys.tier_count(); ++i) {
    advisor::TierPolicy policy;
    policy.name = sys.tier(i).name();
    policy.limit = i == 0 ? dram_limit : sys.tier(i).capacity();
    policy.load_coef = 1.0;
    policy.store_coef = kStoreCoef;
    policy.order = static_cast<int>(i);
    policy.fallback = i == sys.fallback_index();
    config.tiers.push_back(std::move(policy));
  }
  return config;
}

std::unique_ptr<runtime::MemoryModeExec> memory_mode(const memsim::MemorySystem& sys) {
  return std::make_unique<runtime::MemoryModeExec>(
      &sys, 0, sys.fallback_index(), memsim::DramCacheModel(sys.tier(0).capacity()));
}

Expected<flexmalloc::FlexMalloc> make_flexmalloc(const memsim::MemorySystem& sys,
                                                 const flexmalloc::ParsedReport& report,
                                                 Bytes dram_limit,
                                                 const bom::SymbolTable* symbols,
                                                 bool match_cache) {
  std::vector<flexmalloc::HeapSpec> heaps;
  for (std::size_t i = 0; i < sys.tier_count(); ++i) {
    heaps.push_back({sys.tier(i).name(), i == 0 ? dram_limit : sys.tier(i).capacity()});
  }
  flexmalloc::MatcherOptions matcher;
  matcher.match_cache = match_cache;
  return flexmalloc::FlexMalloc::create(std::move(heaps), report, symbols, matcher);
}

Expected<Advice> advise(const analyzer::AnalysisResult& analysis,
                        const advisor::AdvisorConfig& config, const std::string& dram_tier,
                        const std::string& pmem_tier, const bom::ModuleTable& modules,
                        const bom::SymbolTable* symbols) {
  Expected<advisor::Placement> base = unexpected("not run");
  {
    Span span("advisor", "density");
    base = advisor::place_by_density(analysis.sites, config);
  }
  if (!base) return unexpected("density placement: " + base.error());
  advisor::BandwidthAwareOptions bw;
  bw.peak_pmem_bw_gbs = analysis.observed_peak_bw_gbs;
  bw.dram_tier = dram_tier;
  bw.pmem_tier = pmem_tier;
  Expected<advisor::BandwidthAwareResult> refined = unexpected("not run");
  {
    Span span("advisor", "bw_aware");
    refined = advisor::place_bandwidth_aware(analysis.sites, *base, config, bw);
  }
  if (!refined) return unexpected("bandwidth-aware placement: " + refined.error());
  Advice advice;
  {
    Span span("advisor", "report");
    auto text = advisor::report_to_string(refined->placement, advisor::ReportFormat::kBom,
                                          modules, symbols);
    if (!text) return unexpected("report: " + text.error());
    advice.report = std::move(*text);
  }
  if (tracer().enabled()) {
    Span span("advisor", "diff");
    advice.moves = advisor::diff_placements(*base, refined->placement).size();
  }
  return advice;
}

Status fold_pass(const trace::TraceReader& reader, const analyzer::AnalyzerOptions& options,
                 std::size_t expect_sites) {
  analyzer::IncrementalAggregator fold(reader.stacks(), reader.functions(), options);
  std::vector<trace::Event> block;
  for (std::size_t i = 0; i < reader.block_count(); ++i) {
    if (auto s = reader.decode_block(i, block); !s) return s;
    Span span("analyzer", "fold");
    if (auto s = fold.ingest(block); !s) return s;
  }
  Expected<analyzer::AnalysisResult> result = unexpected("not run");
  {
    Span span("analyzer", "finalize");
    result = fold.finalize();
  }
  if (!result) return unexpected("incremental finalize: " + result.error());
  if (result->sites.size() != expect_sites) {
    return unexpected("incremental fold found " + std::to_string(result->sites.size()) +
                      " sites, analyze() " + std::to_string(expect_sites));
  }
  return {};
}

Expected<double> simulate_report(const runtime::Workload& app, const memsim::MemorySystem& sys,
                                 const std::string& report_text, Bytes dram_limit) {
  const auto mm = memory_mode(sys);
  runtime::ExecutionEngine engine(&sys, {});
  const auto baseline = engine.run(app, *mm);
  if (!baseline) return unexpected("memory-mode replay: " + baseline.error());
  const auto parsed = flexmalloc::parse_report(report_text, *app.modules);
  if (!parsed) return unexpected("report parse: " + parsed.error());
  auto fm = make_flexmalloc(sys, *parsed, dram_limit, app.symbols.get(), false);
  if (!fm) return unexpected(fm.error());
  runtime::AppDirectMode mode(&sys, &*fm);
  const auto production = engine.run(app, mode);
  if (!production) return unexpected("app-direct replay: " + production.error());
  return production->speedup_over(*baseline);
}

double attributed_ratio(const analyzer::AnalysisResult& analysis) {
  double attributed = 0.0;
  for (const auto& site : analysis.sites) attributed += site.load_misses + site.store_misses;
  const double total = attributed + analysis.unattributed_samples;
  return total > 0.0 ? attributed / total : 0.0;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void record_flexmalloc(const flexmalloc::FlexMalloc& fm, OpResult& out) {
  const auto lookups = static_cast<double>(fm.matcher().lookups());
  out.layer["flexmalloc.lookups"] = lookups;
  out.layer["flexmalloc.match_hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(fm.matcher().hits()) / lookups : 0.0;
  out.layer["flexmalloc.oom_redirects"] = static_cast<double>(fm.oom_redirects());
}

}  // namespace perfbench
