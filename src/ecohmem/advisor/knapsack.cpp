#include "ecohmem/advisor/knapsack.hpp"

#include <algorithm>
#include <numeric>

namespace ecohmem::advisor {

Bytes site_footprint(const analyzer::SiteRecord& site, FootprintMode mode) {
  switch (mode) {
    case FootprintMode::kMaxSize:
      return site.max_size;
    case FootprintMode::kPeakLive:
      return std::max(site.peak_live_bytes, site.max_size);
  }
  return site.max_size;
}

Expected<Placement> place_by_density(const std::vector<analyzer::SiteRecord>& sites,
                                     const AdvisorConfig& config) {
  if (config.tiers.empty()) return unexpected("advisor config has no tiers");

  Placement placement;
  placement.fallback_tier = config.fallback_tier().name;

  std::vector<std::size_t> remaining(sites.size());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});

  for (const TierPolicy& tier : config.tiers) {
    if (remaining.empty()) break;

    // Value function for *this* knapsack uses this tier's coefficients,
    // evaluated once per remaining site (`order` indexes `remaining`).
    std::vector<double> density(remaining.size());
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      density[k] = sites[remaining[k]].density(tier.load_coef, tier.store_coef);
    }
    std::vector<std::size_t> order(remaining.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return density[a] > density[b]; });

    Bytes used = 0;
    std::vector<std::size_t> next_remaining;
    next_remaining.reserve(remaining.size());
    for (const std::size_t k : order) {
      const std::size_t idx = remaining[k];
      const analyzer::SiteRecord& site = sites[idx];
      const Bytes footprint = site_footprint(site, config.footprint_mode);

      // Objects with no observed misses carry no value; leave them for the
      // fallback tier rather than wasting fast-tier capacity.
      const bool worthless = density[k] <= 0.0 && !tier.fallback;

      if (!worthless && used + footprint <= tier.limit) {
        used += footprint;
        PlacementDecision d;
        d.stack = site.stack;
        d.callstack = site.callstack;
        d.tier = tier.name;
        d.footprint = footprint;
        d.density = density[k];
        placement.decisions.push_back(std::move(d));
      } else {
        next_remaining.push_back(idx);
      }
    }
    remaining = std::move(next_remaining);
  }

  // Anything that did not fit anywhere is listed on the fallback tier so
  // the report is total over profiled sites.
  for (const std::size_t idx : remaining) {
    const analyzer::SiteRecord& site = sites[idx];
    PlacementDecision d;
    d.stack = site.stack;
    d.callstack = site.callstack;
    d.tier = placement.fallback_tier;
    d.footprint = site_footprint(site, config.footprint_mode);
    d.density = 0.0;
    placement.decisions.push_back(std::move(d));
  }

  return placement;
}

Expected<Placement> place_exact_dp(const std::vector<analyzer::SiteRecord>& sites,
                                   const AdvisorConfig& config, std::size_t max_bins) {
  if (config.tiers.empty()) return unexpected("advisor config has no tiers");
  if (max_bins < 2) return unexpected("exact DP needs at least 2 capacity bins");

  Placement placement;
  placement.fallback_tier = config.fallback_tier().name;

  std::vector<std::size_t> remaining(sites.size());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});

  for (const TierPolicy& tier : config.tiers) {
    if (remaining.empty()) break;

    if (tier.fallback) {
      // The fallback knapsack accepts whatever reaches it (capacity is
      // effectively the whole subsystem).
      for (const std::size_t idx : remaining) {
        const analyzer::SiteRecord& site = sites[idx];
        PlacementDecision d;
        d.stack = site.stack;
        d.callstack = site.callstack;
        d.tier = tier.name;
        d.footprint = site_footprint(site, config.footprint_mode);
        d.density = site.density(tier.load_coef, tier.store_coef);
        placement.decisions.push_back(std::move(d));
      }
      remaining.clear();
      break;
    }

    // Discretize capacity; item weights are rounded *up* so the DP can
    // never overcommit the real budget.
    const Bytes bin =
        std::max<Bytes>(tier.limit / static_cast<Bytes>(max_bins), Bytes{1});
    const auto capacity = static_cast<std::size_t>(tier.limit / bin);

    struct Item {
      std::size_t site_index;
      std::size_t weight;
      double value;
    };
    std::vector<Item> items;
    for (const std::size_t idx : remaining) {
      const analyzer::SiteRecord& site = sites[idx];
      const Bytes footprint = site_footprint(site, config.footprint_mode);
      const double value = tier.load_coef * site.load_misses +
                           tier.store_coef * site.store_misses;
      const auto weight = static_cast<std::size_t>((footprint + bin - 1) / bin);
      if (value <= 0.0 || weight > capacity) continue;
      items.push_back(Item{idx, std::max<std::size_t>(weight, 1), value});
    }

    // Classic 0/1 knapsack DP with parent tracking for reconstruction.
    std::vector<double> best(capacity + 1, 0.0);
    std::vector<std::vector<bool>> taken(items.size(),
                                         std::vector<bool>(capacity + 1, false));
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t c = capacity; c >= items[i].weight; --c) {
        const double candidate = best[c - items[i].weight] + items[i].value;
        if (candidate > best[c]) {
          best[c] = candidate;
          taken[i][c] = true;
        }
      }
    }

    std::vector<bool> selected(sites.size(), false);
    std::size_t c = capacity;
    for (std::size_t i = items.size(); i-- > 0;) {
      if (taken[i][c]) {
        selected[items[i].site_index] = true;
        c -= items[i].weight;
      }
    }

    std::vector<std::size_t> next_remaining;
    next_remaining.reserve(remaining.size());
    for (const std::size_t idx : remaining) {
      const analyzer::SiteRecord& site = sites[idx];
      if (selected[idx]) {
        PlacementDecision d;
        d.stack = site.stack;
        d.callstack = site.callstack;
        d.tier = tier.name;
        d.footprint = site_footprint(site, config.footprint_mode);
        d.density = site.density(tier.load_coef, tier.store_coef);
        placement.decisions.push_back(std::move(d));
      } else {
        next_remaining.push_back(idx);
      }
    }
    remaining = std::move(next_remaining);
  }

  for (const std::size_t idx : remaining) {
    const analyzer::SiteRecord& site = sites[idx];
    PlacementDecision d;
    d.stack = site.stack;
    d.callstack = site.callstack;
    d.tier = placement.fallback_tier;
    d.footprint = site_footprint(site, config.footprint_mode);
    placement.decisions.push_back(std::move(d));
  }
  return placement;
}

}  // namespace ecohmem::advisor
