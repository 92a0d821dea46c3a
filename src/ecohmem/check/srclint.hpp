#pragma once

/// \file srclint.hpp
/// Source-level determinism and concurrency-contract lint (ecohmem-srclint).
///
/// The pipeline's reproducibility contract (docs/threading.md, PAPER.md:
/// identical inputs must produce bit-identical traces, placements and
/// reports) is easy to break with one careless line of code — a stray
/// `rand()`, a wall-clock read feeding a simulated timestamp, a hash-map
/// iteration ordering serialized output, or a raw `std::mutex` that
/// bypasses the leaf lockdep wrappers. `ecohmem-lint` checks the
/// *artifacts* after the fact; this lint checks the *source* before the
/// artifact is ever produced.
///
/// The scanner is a deliberate text heuristic, not a compiler plugin: it
/// strips comments, applies per-rule regex patterns line by line, and
/// scopes each rule to the source paths where its contract holds. False
/// positives are expected occasionally and are silenced inline:
///
///     std::sort(rows.begin(), rows.end());   // order fixed below
///     for (auto& [k, v] : index) {           // srclint-ok: det-unordered-iter (sorted above)
///
/// A `// srclint-ok: <rule-id>` comment on the offending line or the
/// line directly above suppresses that rule there; anything after the id
/// (conventionally a parenthesized reason) is ignored. Rule catalogue
/// and scoping table: docs/linting.md.

#include <string>
#include <string_view>
#include <vector>

#include "ecohmem/check/diagnostic.hpp"
#include "ecohmem/common/expected.hpp"

namespace ecohmem::check {

/// Identity of one source rule (for --list-rules and id validation).
struct SrclintRuleInfo {
  std::string_view id;           ///< stable kebab-case id, e.g. "det-rand"
  std::string_view description;  ///< one-line contract statement
};

/// The built-in source rule set, in reporting order.
[[nodiscard]] const std::vector<SrclintRuleInfo>& srclint_rules();

/// True when `id` names a built-in source rule.
[[nodiscard]] bool is_srclint_rule(std::string_view id);

struct SrclintOptions {
  /// Rule ids to skip (the CLI's --disable). Ids are validated by the
  /// CLI before they get here; unknown ids are silently inert.
  std::vector<std::string> disabled_rules;

  /// Cap on findings reported per rule; excess findings are folded into
  /// one summary diagnostic. 0 = unlimited.
  std::size_t max_per_rule = 64;
};

struct SrclintResult {
  /// One finding per violating line; `artifact` is "<path>:<line>" with
  /// the path relative to the scanned root.
  std::vector<Diagnostic> diagnostics;
  std::size_t files_scanned = 0;
  std::vector<std::string> rules_run;      ///< enabled rules
  std::vector<std::string> rules_skipped;  ///< disabled rules

  [[nodiscard]] bool ok() const { return !has_errors(diagnostics); }
};

/// Scans the `src/` and `tools/` trees under `root` (whichever exist)
/// with every enabled rule. Files are visited in sorted relative-path
/// order, so output is deterministic — the lint holds itself to the
/// contract it enforces. Fails only when neither tree exists under
/// `root`; unreadable individual files become diagnostics.
[[nodiscard]] Expected<SrclintResult> srclint_scan_tree(const std::string& root,
                                                        const SrclintOptions& options = {});

}  // namespace ecohmem::check
