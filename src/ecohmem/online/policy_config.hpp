#pragma once

/// \file policy_config.hpp
/// Configuration of the online placement subsystem (docs/online.md).
///
/// The policy is configured through the same INI layer as the Advisor:
/// an `[online]` section whose keys control the PEBS-style sampler, the
/// EWMA hotness tracker and the promote/demote migration policy. The
/// loader is strict — unknown keys, malformed and out-of-range values are
/// errors — so a typo in a policy file stops the run instead of silently
/// running a different policy. check_policy() is the one place these
/// rules live: the loader returns its first issue, and the `online-*`
/// rules of ecohmem-lint report all of them, so the two agree by
/// construction.

#include <string>
#include <string_view>
#include <vector>

#include "ecohmem/common/config.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::online {

/// Section name the policy lives in (`[online]`).
inline constexpr std::string_view kPolicySection = "online";

/// The recognized keys of the `[online]` section, terminated by a
/// nullptr sentinel.
[[nodiscard]] const char* const* policy_keys();

/// One problem with a policy: the key it concerns (an unknown key names
/// itself; a cross-key violation names the key it constrains) and the
/// loader's error text.
struct PolicyIssue {
  std::string key;
  std::string message;
};

struct OnlinePolicyConfig {
  /// Fraction of LLC-miss events the simulated PEBS unit samples, in
  /// (0, 1]. Fractional expectations are rounded stochastically through
  /// the deterministic common/rng stream.
  double sample_rate = 0.01;

  /// EWMA smoothing factor for per-object hotness, in (0, 1]. 1 means
  /// only the latest kernel counts; small values remember longer.
  double ewma_alpha = 0.3;

  /// Sliding-window length in kernel steps (> 0). A fast-tier resident
  /// is protected from displacement by its EWMA *peak* over the last
  /// `window` kernels (its shield, hotness.hpp), so the window should
  /// cover one iteration of the workload's inner loop: objects touched
  /// periodically keep their shield, objects cold for a whole window —
  /// a genuine phase shift — become victims. The same length doubles as
  /// the planner's maturity gate: an object younger than `window`
  /// kernels is never promoted, so short-lived per-step temporaries are
  /// not worth copying no matter how hot their brief life looks.
  std::uint64_t window = 12;

  /// Hysteresis margin (>= 0): a slow-tier object may displace a
  /// fast-tier one only when its hotness exceeds the resident's shield
  /// by this relative margin, which together with the shield keeps
  /// steady-state workloads from thrashing (docs/online.md).
  double hysteresis = 0.25;

  /// Minimum hotness (sampled miss events per MiB per kernel, >= 0) an
  /// object needs before a promotion is ever proposed.
  double min_density = 1.0;

  /// Cap on migrations proposed per evaluation (>= 1).
  std::uint64_t max_moves_per_step = 8;

  /// Cap on bytes moved per evaluation; 0 = unlimited.
  Bytes max_bytes_per_step = 0;

  /// Fraction of the pairwise tier bandwidth a migration stream gets,
  /// in (0, 1] — migrations compete with the application for the
  /// memory controllers, so they never run at device peak.
  double bandwidth_fraction = 0.5;

  /// Seed of the sampler's deterministic RNG stream: same seed + same
  /// policy + same workload => bit-identical migration sequence.
  std::uint64_t seed = 0x0ec0;

  /// Granularity of sub-range (page-granular) migration (> 0, a power
  /// of two). Partial moves of huge objects are aligned to and rounded
  /// to multiples of this chunk — 2 MiB by default, the x86-64 huge-page
  /// size real PMem migrators move (Marques et al.).
  Bytes chunk_bytes = 2ull << 20;

  /// Objects at least this large are migrated in chunk-aligned
  /// sub-ranges instead of as a whole (docs/online.md). 0 disables
  /// page-granular migration entirely.
  Bytes huge_object_bytes = 1ull << 30;

  /// Every range and cross-key violation, in field order.
  [[nodiscard]] std::vector<PolicyIssue> violations() const;

  /// The first of violations(), if any.
  [[nodiscard]] Status validate() const;

  /// Strict parse of an `[online]` section: the first issue check_policy()
  /// finds is the error.
  [[nodiscard]] static Expected<OnlinePolicyConfig> from_config(const Config& config);

  /// Reads and parses a policy file.
  [[nodiscard]] static Expected<OnlinePolicyConfig> load(const std::string& path);
};

/// What one collecting pass over a policy file finds.
struct PolicyCheck {
  OnlinePolicyConfig config;        ///< every well-formed value; defaults elsewhere
  std::vector<PolicyIssue> issues;  ///< empty when the policy is valid
};

/// Reads an `[online]` section (top-level keys are also accepted when no
/// section is present) and records every issue: unknown keys (in key
/// order), then malformed values, then config.violations() (both in
/// field order).
[[nodiscard]] PolicyCheck check_policy(const Config& config);

}  // namespace ecohmem::online
