#pragma once

/// \file matcher.hpp
/// Call-stack matching at allocation interception time (§VI).
///
/// When the application calls a heap routine, FlexMalloc captures the
/// call stack (BOM frames) and looks it up in the report:
///
///  - BOM path: "the library only has to compare the captured call-stack
///    addresses with the absolute call-stack addresses calculated during
///    initialization" — an O(1) hash lookup over integer frames here.
///  - Human-readable path: every captured frame is first symbolized to
///    file:line via the debug info (binutils role: bom::SymbolTable) and
///    the resulting strings are compared — the overhead §VIII-D measures.
///    Failing symbolization means no match (fallback tier).
///
/// Both paths report accumulated matching cost in simulated nanoseconds
/// so the execution engine can charge it against the run.
///
/// Single owner (docs/threading.md): a matcher belongs to the FlexMalloc
/// that built it and is used from one thread. `match()` updates its
/// counters and cache without locks, and the human-readable path drives
/// the (lazily sorted) `bom::SymbolTable` it was given.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "ecohmem/bom/format.hpp"
#include "ecohmem/bom/frame.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"

namespace ecohmem::flexmalloc {

/// Outcome of a lookup: a tier name, or nothing (use fallback).
struct MatchResult {
  /// Tier the stack maps to; nullptr = unmatched (use the fallback
  /// tier). Points into the matcher's index — valid for its lifetime.
  const std::string* tier = nullptr;

  /// True when the report listed this call stack.
  [[nodiscard]] bool matched() const { return tier != nullptr; }
};

/// Matching options (FlexMalloc's configurable stack-depth behaviour).
struct MatcherOptions {
  /// When exact matching fails, fall back to comparing only the
  /// innermost `min_suffix_depth` frames (0 = exact matching only).
  /// Useful when outer frames vary between runs (e.g. MPI-internal
  /// wrappers); ambiguous suffixes — two report entries sharing the same
  /// innermost frames but mapped to different tiers — never match.
  std::size_t min_suffix_depth = 0;

  /// Enable the match cache: full match outcomes (including negative
  /// ones) are memoized per captured stack, so repeated stacks skip
  /// suffix probing and — on the human-readable path — re-symbolization.
  /// Placement decisions are unaffected (the cache memoizes a pure
  /// function of the stack); the accumulated matching *cost* shrinks,
  /// which is the point. Off by default to preserve the per-allocation
  /// overhead accounting the §VIII-D benchmarks reproduce.
  bool match_cache = false;
};

/// Matches captured call stacks against a parsed placement report.
class CallStackMatcher {
 public:
  /// An empty matcher matches nothing (everything falls back).
  CallStackMatcher() = default;

  /// Move-only: cached results point into the matcher's own indexes.
  CallStackMatcher(CallStackMatcher&&) noexcept = default;
  CallStackMatcher& operator=(CallStackMatcher&&) noexcept = default;
  CallStackMatcher(const CallStackMatcher&) = delete;
  CallStackMatcher& operator=(const CallStackMatcher&) = delete;
  ~CallStackMatcher() = default;

  /// Builds matching structures from a parsed report. For human-readable
  /// reports a symbol table is mandatory.
  [[nodiscard]] static Expected<CallStackMatcher> create(const ParsedReport& report,
                                                         const bom::SymbolTable* symbols,
                                                         MatcherOptions options = {});

  /// Looks up the captured stack. Never fails; unmatched stacks return
  /// an empty result (FlexMalloc then uses the fallback tier).
  [[nodiscard]] MatchResult match(const bom::CallStack& captured);

  /// Accumulated matching cost in simulated ns (BOM: hash+compare;
  /// HR: symbolization + string compares).
  [[nodiscard]] double matching_cost_ns() const;

  /// Total `match()` calls so far.
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }

  /// Lookups that found a report entry.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

  /// True when the report uses BOM (module!offset) stacks.
  [[nodiscard]] bool is_bom() const { return is_bom_; }

 private:
  [[nodiscard]] MatchResult match_uncached(const bom::CallStack& captured);

  bool is_bom_ = true;
  MatcherOptions options_;
  std::unordered_map<bom::CallStack, std::string, bom::CallStackHash> bom_index_;
  std::unordered_map<std::string, std::string> hr_index_;  // formatted stack -> tier
  /// innermost-k suffix -> tier; empty string marks an ambiguous suffix.
  std::unordered_map<bom::CallStack, std::string, bom::CallStackHash> suffix_index_;
  const bom::SymbolTable* symbols_ = nullptr;

  /// Match outcomes per captured stack (nullptr = cached miss), filled
  /// only when MatcherOptions::match_cache is set. Values point into the
  /// indexes above, which never change after `create`.
  std::unordered_map<bom::CallStack, const std::string*, bom::CallStackHash> cache_;

  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t frames_compared_ = 0;
  std::uint64_t string_bytes_compared_ = 0;
  double symbolization_ns_ = 0.0;
};

}  // namespace ecohmem::flexmalloc
