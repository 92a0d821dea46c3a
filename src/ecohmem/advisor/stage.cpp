#include "ecohmem/advisor/stage.hpp"

#include <cmath>
#include <utility>

#include "ecohmem/advisor/knapsack.hpp"

namespace ecohmem::advisor {

BandwidthClasses bandwidth_classes(const AdvisorConfig& config) {
  return {config.tiers.front().name, config.fallback_tier().name};
}

Expected<double> resolve_peak_pmem_bw(double requested_gbs, double observed_gbs) {
  if (requested_gbs == 0.0) return observed_gbs;
  if (!std::isfinite(requested_gbs) || requested_gbs < 0.0) {
    return unexpected("peak PMem bandwidth must be positive and finite (0 = observed peak), got " +
                      std::to_string(requested_gbs));
  }
  return requested_gbs;
}

Expected<BandwidthAwareResult> run_stage(const analyzer::AnalysisResult& analysis,
                                         const AdvisorConfig& config, bool bandwidth_aware,
                                         double peak_pmem_bw_gbs, std::optional<Placement> base) {
  const auto peak = resolve_peak_pmem_bw(peak_pmem_bw_gbs, analysis.observed_peak_bw_gbs);
  if (!peak) return unexpected(peak.error());
  if (config.tiers.empty()) return unexpected("advisor config has no tiers");
  if (!base) {
    auto density = place_by_density(analysis.sites, config);
    if (!density) return unexpected(density.error());
    base = std::move(*density);
  }
  if (!bandwidth_aware) return BandwidthAwareResult{std::move(*base), {}, 0, 0};
  // Region thresholds are relative to the workload's peak, not the
  // DIMMs' (Fig. 3 peaks at 1.3 GB/s and still classifies objects as
  // B_high), hence the observed peak by default.
  const BandwidthClasses classes = bandwidth_classes(config);
  BandwidthAwareOptions options;
  options.peak_pmem_bw_gbs = *peak;
  options.dram_tier = classes.dram;
  options.pmem_tier = classes.pmem;
  return place_bandwidth_aware(analysis.sites, std::move(*base), config, options);
}

}  // namespace ecohmem::advisor
