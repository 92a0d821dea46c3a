#include "ecohmem/analyzer/aggregator.hpp"

#include "ecohmem/analyzer/incremental.hpp"

namespace ecohmem::analyzer {

BandwidthRegion classify_region(double bw_gbs, double peak_gbs) {
  const double frac = peak_gbs > 0.0 ? bw_gbs / peak_gbs : 0.0;
  if (frac < 0.20) return BandwidthRegion::kLow;
  if (frac <= 0.40) return BandwidthRegion::kMid;
  return BandwidthRegion::kHigh;
}

std::string to_string(BandwidthRegion region) {
  switch (region) {
    case BandwidthRegion::kLow: return "B_low";
    case BandwidthRegion::kMid: return "B_mid";
    case BandwidthRegion::kHigh: return "B_high";
  }
  return "?";
}

Expected<AnalysisResult> analyze(const trace::Trace& trace, const AnalyzerOptions& options) {
  IncrementalAggregator fold(trace.stacks, trace.functions, options);
  if (auto status = fold.ingest(trace.events); !status.ok()) return unexpected(status.error());
  return fold.finalize(options.coverage);
}

}  // namespace ecohmem::analyzer
