#pragma once

/// \file bandwidth_aware.hpp
/// The memory-bandwidth-aware object placement algorithm (§VII-B).
///
/// Step 1 — Categorization (Table IV). Starting from the base (density)
/// placement:
///   - Fitting:     DRAM object, alloc count < T_ALLOC, allocation-time
///                  PMem bandwidth < T_PMEMLOW. Long-lived; its bandwidth
///                  demand may differ from its allocation region.
///   - Streaming-D: DRAM object with no writes, alloc count > T_ALLOC,
///                  allocation-time bandwidth < T_PMEMLOW. Short-lived,
///                  stays in its allocation region.
///   - Thrashing:   PMem object, alloc count > T_ALLOC, allocation-time
///                  bandwidth > T_PMEMHIGH. High-demand and short-lived.
///
/// Step 2 — Placement (Algorithm 1): move every Streaming-D object to
/// PMEM (releasing DRAM); then, for each Thrashing object in descending
/// bandwidth (ties broken by alloc/dealloc time), find the smallest
/// Fitting object that can accommodate it for its entire lifetime and
/// swap the two.
///
/// Empirical thresholds from the paper: T_ALLOC = 2, T_PMEMLOW = 20% and
/// T_PMEMHIGH = 40% of peak PMem bandwidth.

#include <string>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/placement.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::advisor {

struct BandwidthAwareOptions {
  std::uint64_t t_alloc = 2;     ///< T_ALLOC
  double t_pmem_low = 0.20;      ///< T_PMEMLOW, fraction of peak PMem bw
  double t_pmem_high = 0.40;     ///< T_PMEMHIGH, fraction of peak PMem bw
  double peak_pmem_bw_gbs = 26.0;

  std::string dram_tier = "dram";
  std::string pmem_tier = "pmem";
};

/// Object categories of Table IV (kNone = not selected by any criterion).
enum class Category { kNone, kFitting, kStreamingD, kThrashing };

[[nodiscard]] std::string to_string(Category c);

/// Classifies one site given its base-placement tier (Step 1).
[[nodiscard]] Category categorize(const analyzer::SiteRecord& site, const std::string& tier,
                                  const BandwidthAwareOptions& options);

/// Per-site categorization outcome (exposed for tests and for the
/// Table II/III reproduction benchmarks).
struct CategorizedSite {
  trace::StackId stack = trace::kInvalidStack;
  Category category = Category::kNone;
};

/// Applies Algorithm 1 to the base placement, returning the refined
/// placement plus the categorization (for reporting). `sites` must be the
/// same records the base placement was computed from; their stack ids
/// index the trace's stack table (as the analyzer produces them), and a
/// site with `kInvalidStack` is an error. `base` is refined in place, so
/// a caller that no longer needs it moves it in.
struct BandwidthAwareResult {
  Placement placement;
  std::vector<CategorizedSite> categories;
  std::size_t streaming_moved = 0;  ///< Streaming-D objects pushed to PMEM
  std::size_t swaps = 0;            ///< Thrashing<->Fitting exchanges
};

[[nodiscard]] Expected<BandwidthAwareResult> place_bandwidth_aware(
    const std::vector<analyzer::SiteRecord>& sites, Placement base, const AdvisorConfig& config,
    const BandwidthAwareOptions& options);

}  // namespace ecohmem::advisor
