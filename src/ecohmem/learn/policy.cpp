#include "ecohmem/learn/policy.hpp"

#include <algorithm>
#include <numeric>

namespace ecohmem::learn {

Expected<advisor::Placement> place_by_ranker(const analyzer::AnalysisResult& analysis,
                                             const advisor::AdvisorConfig& config,
                                             const Model& model) {
  if (config.tiers.empty()) return unexpected("advisor config has no tiers");
  if (model.schema_hash != feature_schema_hash()) {
    return unexpected("model feature schema hash does not match this build "
                      "(retrain with ecohmem-train)");
  }

  const std::vector<analyzer::SiteRecord>& sites = analysis.sites;
  const FeatureMatrix features = extract_features(analysis);

  std::vector<double> scores(sites.size(), 0.0);
  for (std::size_t i = 0; i < features.size(); ++i) {
    scores[i] = model.score(features.rows[i]);
  }

  advisor::Placement placement;
  placement.fallback_tier = config.fallback_tier().name;

  // One global ranked order (the model already folds in everything the
  // per-tier density recomputation captured); stable_sort keeps site
  // order as the tie-break so equal scores stay deterministic.
  std::vector<std::size_t> remaining(sites.size());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });

  for (const advisor::TierPolicy& tier : config.tiers) {
    if (remaining.empty()) break;

    Bytes used = 0;
    std::vector<std::size_t> next_remaining;
    next_remaining.reserve(remaining.size());
    for (const std::size_t idx : remaining) {
      const analyzer::SiteRecord& site = sites[idx];
      const Bytes footprint = advisor::site_footprint(site, config.footprint_mode);

      // Same rule as the greedy knapsack: sites with no observed misses
      // carry no value, so they never occupy a non-fallback tier.
      const bool worthless =
          site.density(tier.load_coef, tier.store_coef) <= 0.0 && !tier.fallback;

      // used <= limit, so the difference never wraps.
      if (!worthless && footprint <= tier.limit - used) {
        used += footprint;
        advisor::PlacementDecision d;
        d.stack = site.stack;
        d.callstack = site.callstack;
        d.tier = tier.name;
        d.footprint = footprint;
        d.density = scores[idx];
        placement.decisions.push_back(std::move(d));
      } else {
        next_remaining.push_back(idx);
      }
    }
    remaining = std::move(next_remaining);
  }

  for (const std::size_t idx : remaining) {
    const analyzer::SiteRecord& site = sites[idx];
    advisor::PlacementDecision d;
    d.stack = site.stack;
    d.callstack = site.callstack;
    d.tier = placement.fallback_tier;
    d.footprint = advisor::site_footprint(site, config.footprint_mode);
    d.density = scores[idx];
    placement.decisions.push_back(std::move(d));
  }

  return placement;
}

}  // namespace ecohmem::learn
