#pragma once

/// \file flexmalloc.hpp
/// The FlexMalloc interposer: routes each intercepted allocation to the
/// heap manager of the tier named by the Advisor report (§IV-C).
///
/// Behaviors reproduced from the real library:
///   - call-stack capture + matching on every allocation (matcher.hpp),
///   - fallback tier for objects not listed in the report,
///   - fallback redirection when the designated tier runs out of space,
///   - per-tier accounting and matching-cost metering.
///
/// The "interposition" boundary here is the explicit `malloc(stack, size)`
/// call the execution engine makes for every workload allocation; on a
/// real system the same entry point is reached via LD_PRELOAD.
///
/// Single owner (docs/threading.md): a FlexMalloc, its heaps and its
/// matcher belong to the one thread that replays the workload
/// (`runtime::ExecutionEngine`). Nothing here takes a lock or uses an
/// atomic; never share an instance between threads.

#include <string>
#include <vector>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/bom/symbols.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/flexmalloc/heap_manager.hpp"
#include "ecohmem/flexmalloc/matcher.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"

namespace ecohmem::flexmalloc {

/// Description of one tier-backed heap FlexMalloc sits on.
struct HeapSpec {
  std::string tier;     ///< tier name, must match report tier names
  Bytes capacity = 0;   ///< capacity available for dynamic allocations
};

/// A completed allocation.
struct Allocation {
  std::uint64_t address = 0;   ///< simulated VA of the new block
  std::size_t tier_index = 0;  ///< tier the block actually landed in
  bool matched = false;        ///< report hit (vs fallback by default)
  bool redirected = false;     ///< designated tier was full, fell back
};

/// Per-tier counters (a snapshot, see `FlexMalloc::stats`).
/// Migrations are tracked separately (`FlexMalloc::migrations()`), so
/// `allocations`/`bytes` always mean routing decisions, never moves.
struct TierStats {
  std::string tier;                ///< tier name
  std::uint64_t allocations = 0;   ///< completed allocations routed here
  Bytes bytes = 0;                 ///< sum of requested (unpadded) bytes
  Bytes high_water = 0;            ///< peak observed heap usage
};

/// Result of a live-object migration attempt (`FlexMalloc::migrate`).
struct MigrationOutcome {
  bool moved = false;          ///< false = target tier lacked capacity
  std::uint64_t address = 0;   ///< new address when moved, else the original
  std::size_t from_tier = 0;   ///< tier the block lived in
  Bytes bytes = 0;             ///< padded block size
};

class FlexMalloc {
 public:
  /// `heaps`: one per tier, in the order used by `Allocation::tier_index`.
  /// `fallback_tier` must name one of them. `symbols` is required only
  /// for human-readable reports. `matcher_options` configures the
  /// stack-depth fallback matching and the match cache.
  [[nodiscard]] static Expected<FlexMalloc> create(std::vector<HeapSpec> heaps,
                                                   const ParsedReport& report,
                                                   const bom::SymbolTable* symbols = nullptr,
                                                   MatcherOptions matcher_options = {});

  /// Move-only.
  FlexMalloc(FlexMalloc&&) noexcept = default;
  FlexMalloc& operator=(FlexMalloc&&) noexcept = default;
  FlexMalloc(const FlexMalloc&) = delete;
  FlexMalloc& operator=(const FlexMalloc&) = delete;
  ~FlexMalloc() = default;

  /// Interposed malloc: captures nothing itself — the caller passes the
  /// call stack it captured (the engine plays the unwinder's role).
  [[nodiscard]] Expected<Allocation> malloc(const bom::CallStack& stack, Bytes size);

  /// Interposed free.
  [[nodiscard]] Status free(std::uint64_t address);

  /// Interposed realloc: returns a new allocation in the same tier the
  /// stack maps to (contents-copy cost is the engine's concern).
  [[nodiscard]] Expected<Allocation> realloc(const bom::CallStack& stack,
                                             std::uint64_t address, Bytes new_size);

  /// Moves the live block at `address` into `target_tier`'s heap — the
  /// runtime half of the online placement subsystem (docs/online.md).
  /// The destination is allocated before the source is released, so a
  /// full target refuses the move (`moved == false`) and leaves the
  /// block untouched; a refusal is not an error. Errors are reserved
  /// for unknown addresses/tiers and same-tier requests.
  [[nodiscard]] Expected<MigrationOutcome> migrate(std::uint64_t address,
                                                   std::size_t target_tier);

  /// Sub-range form of `migrate` (page-granular migration): moves only
  /// `[address + offset, address + offset + length)` of the live block,
  /// leaving the rest of the block in place — how huge objects migrate
  /// 2 MiB chunks at a time instead of as a whole (docs/online.md). The
  /// moved range becomes its own block in the target heap (the returned
  /// `address`); the source block is split around the released range
  /// (`ArenaHeap::release_range`), so `offset` must be aligned to the
  /// source heap's alignment and `length` must be aligned or reach the
  /// block's end. Covering the whole block is exactly `migrate`. Same
  /// refusal contract as the whole-block form; `bytes` in the outcome is
  /// `length`.
  [[nodiscard]] Expected<MigrationOutcome> migrate(std::uint64_t address,
                                                   std::size_t target_tier, Bytes offset,
                                                   Bytes length);

  /// Completed (moved) migrations and the padded bytes they moved.
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] Bytes migrated_bytes() const { return migrated_bytes_; }

  /// Migration attempts refused because the target tier was full.
  [[nodiscard]] std::uint64_t migration_refusals() const { return migration_refusals_; }

  /// Number of tier heaps.
  [[nodiscard]] std::size_t tier_count() const { return heaps_.size(); }

  /// Name of tier `index` (the order of `create`'s `heaps`).
  [[nodiscard]] const std::string& tier_name(std::size_t index) const {
    return heaps_.at(index).name();
  }

  /// Index of the tier named `name`; fails on unknown names.
  [[nodiscard]] Expected<std::size_t> tier_index(std::string_view name) const;

  /// Index of the fallback tier (unmatched stacks, OOM redirection).
  [[nodiscard]] std::size_t fallback_index() const { return fallback_; }

  /// The heap backing tier `index`.
  [[nodiscard]] const ArenaHeap& heap(std::size_t index) const { return heaps_.at(index); }

  /// Snapshot of the per-tier counters; `high_water` is the heap's own.
  [[nodiscard]] std::vector<TierStats> stats() const;

  /// Simulated cost of all matching work so far (see matcher.hpp).
  [[nodiscard]] double matching_cost_ns() const { return matcher_.matching_cost_ns(); }

  /// The matcher (lookup/hit counters, format).
  [[nodiscard]] const CallStackMatcher& matcher() const { return matcher_; }

  /// Allocations that had to be redirected because their tier was full.
  [[nodiscard]] std::uint64_t oom_redirects() const { return oom_redirects_; }

 private:
  FlexMalloc() = default;

  /// The tier holding the live block at `address` and its padded size.
  struct BlockLocation {
    std::size_t tier = 0;
    Bytes size = 0;
  };

  /// Source lookup and validation shared by both `migrate` forms.
  [[nodiscard]] Expected<BlockLocation> locate_for_move(std::uint64_t address,
                                                        std::size_t target_tier) const;

  /// Moves `[address + offset, address + offset + length)` of `source`'s
  /// block into `target_tier`: destination first, so a full target
  /// refuses and leaves the block untouched.
  [[nodiscard]] Expected<MigrationOutcome> move_range(std::uint64_t address,
                                                      const BlockLocation& source,
                                                      std::size_t target_tier, Bytes offset,
                                                      Bytes length);

  std::vector<ArenaHeap> heaps_;
  std::vector<TierStats> tier_stats_;  ///< stats() fills in high_water
  CallStackMatcher matcher_;
  std::size_t fallback_ = 0;
  std::uint64_t oom_redirects_ = 0;
  std::uint64_t migrations_ = 0;
  Bytes migrated_bytes_ = 0;
  std::uint64_t migration_refusals_ = 0;
};

}  // namespace ecohmem::flexmalloc
