#pragma once

/// \file stage.hpp
/// The HMem Advisor stage of Fig. 1 as one function: a base placement
/// (the §IV-B density knapsack, unless the caller supplies one, such as
/// the learned ranker's), then optionally the §VII bandwidth-aware pass
/// with the paper's thresholds. core::run_workflow, ecohmem-advisor and
/// ecohmem-serve's QUERY_PLACEMENT all run this one chain, so served and
/// offline placements agree by construction.

#include <optional>
#include <string>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/placement.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::advisor {

/// The two tiers the §VII pass exchanges objects between: the config's
/// first (fastest) tier and its fallback tier.
struct BandwidthClasses {
  const std::string& dram;
  const std::string& pmem;
};
[[nodiscard]] BandwidthClasses bandwidth_classes(const AdvisorConfig& config);

/// The peak PMem bandwidth the §VII thresholds scale: `requested_gbs`
/// when it is positive and finite, `observed_gbs` when it is 0. A
/// negative or non-finite request is an error.
[[nodiscard]] Expected<double> resolve_peak_pmem_bw(double requested_gbs, double observed_gbs);

/// Runs the Advisor stage over `analysis`: `base` (the density placement
/// when empty), refined by the §VII pass when `bandwidth_aware`, against
/// `resolve_peak_pmem_bw(peak_pmem_bw_gbs, analysis.observed_peak_bw_gbs)`.
/// Without the pass the result carries the base placement, no categories
/// and zero counters.
[[nodiscard]] Expected<BandwidthAwareResult> run_stage(const analyzer::AnalysisResult& analysis,
                                                       const AdvisorConfig& config,
                                                       bool bandwidth_aware,
                                                       double peak_pmem_bw_gbs = 0.0,
                                                       std::optional<Placement> base = {});

}  // namespace ecohmem::advisor
