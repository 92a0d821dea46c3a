#include "ecohmem/advisor/bandwidth_aware.hpp"

#include "ecohmem/advisor/knapsack.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace ecohmem::advisor {

std::string to_string(Category c) {
  switch (c) {
    case Category::kNone: return "none";
    case Category::kFitting: return "Fitting";
    case Category::kStreamingD: return "Streaming-D";
    case Category::kThrashing: return "Thrashing";
  }
  return "?";
}

Category categorize(const analyzer::SiteRecord& site, const std::string& tier,
                    const BandwidthAwareOptions& options) {
  const double low = options.t_pmem_low * options.peak_pmem_bw_gbs;
  const double high = options.t_pmem_high * options.peak_pmem_bw_gbs;
  const double alloc_bw = site.alloc_time_system_bw_gbs;

  if (tier == options.dram_tier) {
    if (site.alloc_count < options.t_alloc && alloc_bw < low) return Category::kFitting;
    if (site.alloc_count > options.t_alloc && !site.has_writes && alloc_bw < low) {
      return Category::kStreamingD;
    }
  } else if (tier == options.pmem_tier) {
    if (site.alloc_count > options.t_alloc && alloc_bw > high) return Category::kThrashing;
  }
  return Category::kNone;
}

Expected<BandwidthAwareResult> place_bandwidth_aware(
    const std::vector<analyzer::SiteRecord>& sites, const Placement& base,
    const AdvisorConfig& config, const BandwidthAwareOptions& options) {
  BandwidthAwareResult result;
  result.placement = base;

  // Index decisions by position so retiers go through
  // Placement::set_tier (which keeps the placement's lookup caches
  // coherent) instead of mutating decisions in place.
  std::unordered_map<trace::StackId, std::size_t> decision_of;
  for (std::size_t i = 0; i < result.placement.decisions.size(); ++i) {
    decision_of[result.placement.decisions[i].stack] = i;
  }

  // --- Step 1: categorization.
  std::vector<const analyzer::SiteRecord*> fitting;
  std::vector<const analyzer::SiteRecord*> thrashing;
  result.categories.reserve(sites.size());
  for (const auto& s : sites) {
    const auto it = decision_of.find(s.stack);
    const std::string& tier = it != decision_of.end()
                                  ? result.placement.decisions[it->second].tier
                                  : base.fallback_tier;
    const Category c = categorize(s, tier, options);
    result.categories.push_back(CategorizedSite{s.stack, c});

    switch (c) {
      case Category::kFitting:
        fitting.push_back(&s);
        break;
      case Category::kThrashing:
        thrashing.push_back(&s);
        break;
      case Category::kStreamingD: {
        // Algorithm 1: all Streaming-D objects move to PMEM directly.
        if (it != decision_of.end()) {
          result.placement.set_tier(it->second, options.pmem_tier);
          ++result.streaming_moved;
        }
        break;
      }
      case Category::kNone:
        break;
    }
  }

  // --- Step 2: Thrashing objects sorted by bandwidth consumption, then
  // by allocation/deallocation time.
  std::sort(thrashing.begin(), thrashing.end(),
            [](const analyzer::SiteRecord* a, const analyzer::SiteRecord* b) {
              if (a->exec_bw_gbs != b->exec_bw_gbs) return a->exec_bw_gbs > b->exec_bw_gbs;
              if (a->first_alloc != b->first_alloc) return a->first_alloc < b->first_alloc;
              return a->last_free < b->last_free;
            });

  // Fitting candidates sorted by footprint so "smallest ... that can
  // accommodate" is the first match.
  std::sort(fitting.begin(), fitting.end(),
            [&](const analyzer::SiteRecord* a, const analyzer::SiteRecord* b) {
              return site_footprint(*a, config.footprint_mode) <
                     site_footprint(*b, config.footprint_mode);
            });

  std::unordered_set<trace::StackId> consumed;
  for (const analyzer::SiteRecord* t : thrashing) {
    const Bytes needed = site_footprint(*t, config.footprint_mode);
    const analyzer::LiveWindow t_span{t->first_alloc, t->last_free};

    const analyzer::SiteRecord* replacement = nullptr;
    for (const analyzer::SiteRecord* f : fitting) {
      if (site_footprint(*f, config.footprint_mode) < needed) continue;
      // "can accommodate object for its entire lifetime": the Fitting
      // object must be live over the whole span of the Thrashing one.
      const analyzer::LiveWindow f_span{f->first_alloc, f->last_free};
      if (!f_span.contains(t_span)) continue;
      if (consumed.contains(f->stack)) continue;
      replacement = f;
      break;
    }
    if (replacement == nullptr) continue;

    consumed.insert(replacement->stack);
    if (auto it = decision_of.find(t->stack); it != decision_of.end()) {
      result.placement.set_tier(it->second, options.dram_tier);
    }
    if (auto it = decision_of.find(replacement->stack); it != decision_of.end()) {
      result.placement.set_tier(it->second, options.pmem_tier);
    }
    ++result.swaps;
  }

  return result;
}

}  // namespace ecohmem::advisor
