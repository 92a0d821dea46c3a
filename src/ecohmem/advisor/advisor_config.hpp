#pragma once

/// \file advisor_config.hpp
/// HMem Advisor configuration: per-tier capacity limits and load/store
/// coefficients (§IV-B, §V).
///
/// Config file grammar (see common/config.hpp):
///
///   [advisor]
///   footprint = peak_live        # or max_size (the original heuristic)
///
///   [memory]
///   name = dram
///   limit = 12GB                 # DRAM limit for dynamic allocations
///   load_coef = 1.0              # weight of LLC load misses
///   store_coef = 1.0             # weight of store misses (0 = Loads-only)
///   order = 0                    # knapsack fill order (0 = first/fastest)
///
///   [memory]
///   name = pmem
///   limit = 3TB
///   order = 1
///   fallback = true
///
/// The per-tier coefficients "represent read latencies" (paper §IV-B):
/// they let the same framework describe systems with different
/// hetero-memory performance gaps.

#include <string>
#include <vector>

#include "ecohmem/common/config.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::advisor {

/// How a site's capacity charge is computed.
enum class FootprintMode {
  kMaxSize,   ///< largest single allocation (the KNL-era heuristic, §IV-A)
  kPeakLive,  ///< peak simultaneous bytes of the site (default; prevents
              ///< DRAM oversubscription for multi-instance sites)
};

struct TierPolicy {
  std::string name;
  Bytes limit = 0;          ///< capacity budget for dynamic allocations
  double load_coef = 1.0;   ///< C_load in the density value function
  double store_coef = 0.0;  ///< C_store (0 reproduces the Loads-only mode)
  int order = 0;            ///< fill order: ascending
  bool fallback = false;
};

struct AdvisorConfig {
  std::vector<TierPolicy> tiers;  ///< sorted by `order`
  FootprintMode footprint_mode = FootprintMode::kPeakLive;

  /// Reads the `[advisor]` and `[memory]` sections without validate():
  /// only a malformed value or an unknown footprint mode is an error.
  /// ecohmem-lint loads through this so config-coefficients can list
  /// every violation.
  [[nodiscard]] static Expected<AdvisorConfig> parse(const Config& config);

  /// parse(), then validate(); returns the first violation.
  [[nodiscard]] static Expected<AdvisorConfig> from_config(const Config& config);

  /// Every violation, in fill order: a nameless tier or a duplicate name,
  /// a zero limit, a non-finite or negative coefficient; then no tier or
  /// other than one fallback. Empty when the config is usable. Every
  /// consumer checks through this: the file loader, the CLIs' flag
  /// configs, serve's QUERY_PLACEMENT and the config-coefficients rule.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Convenience builder for the paper's two-tier node.
  /// `store_coef` = 0 gives the "Loads" configuration of Fig. 6;
  /// a positive value gives "Loads+stores".
  [[nodiscard]] static AdvisorConfig dram_pmem(Bytes dram_limit, double store_coef,
                                               Bytes pmem_limit = Bytes{3} * 1024 * 1024 *
                                                                  1024 * 1024);

  [[nodiscard]] const TierPolicy* find(std::string_view name) const;
  [[nodiscard]] const TierPolicy& fallback_tier() const;

  /// Serializes to the config-file format above.
  [[nodiscard]] std::string to_config_text() const;
};

}  // namespace ecohmem::advisor
