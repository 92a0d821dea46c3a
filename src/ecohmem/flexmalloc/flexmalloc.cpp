#include "ecohmem/flexmalloc/flexmalloc.hpp"

namespace ecohmem::flexmalloc {

namespace {
/// Non-overlapping VA ranges per tier: tier i owns [ (i+1)<<44, (i+2)<<44 ).
std::uint64_t heap_base(std::size_t tier_index) {
  return (static_cast<std::uint64_t>(tier_index) + 1) << 44;
}
}  // namespace

Expected<FlexMalloc> FlexMalloc::create(std::vector<HeapSpec> heaps, const ParsedReport& report,
                                        const bom::SymbolTable* symbols,
                                        MatcherOptions matcher_options) {
  if (heaps.empty()) return unexpected("FlexMalloc needs at least one heap");

  FlexMalloc fm;
  bool fallback_found = false;
  for (std::size_t i = 0; i < heaps.size(); ++i) {
    const HeapSpec& spec = heaps[i];
    if (spec.capacity == 0) return unexpected("heap '" + spec.tier + "' has zero capacity");
    fm.heaps_.emplace_back(spec.tier, heap_base(i), spec.capacity);
    fm.tier_stats_.push_back(TierStats{.tier = spec.tier});
    if (spec.tier == report.fallback_tier) {
      fm.fallback_ = i;
      fallback_found = true;
    }
  }
  if (!report.fallback_tier.empty() && !fallback_found) {
    return unexpected("report fallback tier '" + report.fallback_tier + "' has no heap");
  }
  if (report.fallback_tier.empty()) {
    // No fallback named in the report: use the largest heap, which is the
    // sensible default the paper describes ("usually the largest").
    std::size_t largest = 0;
    for (std::size_t i = 1; i < fm.heaps_.size(); ++i) {
      if (fm.heaps_[i].capacity() > fm.heaps_[largest].capacity()) largest = i;
    }
    fm.fallback_ = largest;
  }

  // Validate that every report tier has a heap before building the index.
  for (const auto& entry : report.entries) {
    if (!fm.tier_index(entry.tier)) {
      return unexpected("report names unknown tier '" + entry.tier + "'");
    }
  }

  auto matcher = CallStackMatcher::create(report, symbols, matcher_options);
  if (!matcher) return unexpected(matcher.error());
  fm.matcher_ = std::move(*matcher);
  return fm;
}

Expected<std::size_t> FlexMalloc::tier_index(std::string_view name) const {
  for (std::size_t i = 0; i < heaps_.size(); ++i) {
    if (heaps_[i].name() == name) return i;
  }
  return unexpected("unknown tier: '" + std::string(name) + "'");
}

Expected<Allocation> FlexMalloc::malloc(const bom::CallStack& stack, Bytes size) {
  const MatchResult match = matcher_.match(stack);

  std::size_t target = fallback_;
  if (match.matched()) {
    if (auto idx = tier_index(*match.tier)) target = *idx;
  }

  Allocation out;
  out.matched = match.matched();
  out.tier_index = target;

  auto addr = heaps_[target].allocate(size);
  if (!addr && target != fallback_) {
    // Designated tier is full: redirect to the fallback subsystem (§IV-C).
    target = fallback_;
    out.redirected = true;
    ++oom_redirects_;
    addr = heaps_[target].allocate(size);
  }
  if (!addr) return unexpected(addr.error());

  out.address = *addr;
  out.tier_index = target;
  ++tier_stats_[target].allocations;
  tier_stats_[target].bytes += size;
  return out;
}

Status FlexMalloc::free(std::uint64_t address) {
  for (auto& heap : heaps_) {
    if (heap.owns(address)) {
      auto freed = heap.deallocate(address);
      if (!freed) return unexpected(freed.error());
      return {};
    }
  }
  return unexpected("free of address not owned by any heap");
}

Expected<Allocation> FlexMalloc::realloc(const bom::CallStack& stack, std::uint64_t address,
                                         Bytes new_size) {
  if (address != 0) {
    if (Status s = free(address); !s) return unexpected(s.error());
  }
  return malloc(stack, new_size);
}

Expected<FlexMalloc::BlockLocation> FlexMalloc::locate_for_move(std::uint64_t address,
                                                             std::size_t target_tier) const {
  if (target_tier >= heaps_.size()) {
    return unexpected("migrate: unknown target tier index " + std::to_string(target_tier));
  }
  std::size_t source = 0;
  while (source < heaps_.size() && !heaps_[source].owns(address)) ++source;
  if (source == heaps_.size()) {
    return unexpected("migrate: address not owned by any heap");
  }
  if (source == target_tier) {
    return unexpected("migrate: block already lives in tier '" + heaps_[source].name() + "'");
  }
  // `owns` also answers true for freed addresses inside the heap's used
  // range; the size lookup is the live-block check.
  const auto size = heaps_[source].block_size(address);
  if (!size) return unexpected("migrate: " + size.error());
  return BlockLocation{source, *size};
}

Expected<MigrationOutcome> FlexMalloc::move_range(std::uint64_t address,
                                                  const BlockLocation& source,
                                                  std::size_t target_tier, Bytes offset,
                                                  Bytes length) {
  MigrationOutcome out;
  out.from_tier = source.tier;
  out.bytes = length;
  out.address = address;

  // Destination first, so a full target leaves the block where it is;
  // the transient double occupancy (both copies live) matches real
  // migration.
  const auto moved_to = heaps_[target_tier].allocate(length);
  if (!moved_to) {
    ++migration_refusals_;
    return out;
  }
  // Over the whole block, `release_range` is exactly `deallocate`.
  const auto freed = heaps_[source.tier].release_range(address, offset, length);
  if (!freed) {
    // Misaligned sub-range; roll the copy back so a failure never leaks
    // destination capacity.
    (void)heaps_[target_tier].deallocate(*moved_to);
    return unexpected("migrate: source release failed: " + freed.error());
  }

  out.moved = true;
  out.address = *moved_to;
  ++migrations_;
  migrated_bytes_ += length;
  return out;
}

Expected<MigrationOutcome> FlexMalloc::migrate(std::uint64_t address, std::size_t target_tier) {
  const auto source = locate_for_move(address, target_tier);
  if (!source) return unexpected(source.error());
  return move_range(address, *source, target_tier, 0, source->size);
}

Expected<MigrationOutcome> FlexMalloc::migrate(std::uint64_t address, std::size_t target_tier,
                                               Bytes offset, Bytes length) {
  const auto source = locate_for_move(address, target_tier);
  if (!source) return unexpected(source.error());
  const Bytes size = source->size;
  if (length == 0 || offset > size || length > size - offset) {
    return unexpected("migrate: sub-range [" + std::to_string(offset) + ", " +
                      std::to_string(offset + length) + ") outside block of " +
                      std::to_string(size) + " bytes");
  }
  // A tail remnant smaller than one alignment unit is exactly the
  // block's padding (blocks are alignment-padded) and could never be
  // released on its own; absorb it into the moved range so chunk-sized
  // requests against the end of a padded block stay releasable.
  if (size - offset - length < heaps_[source->tier].alignment()) length = size - offset;
  return move_range(address, *source, target_tier, offset, length);
}

std::vector<TierStats> FlexMalloc::stats() const {
  std::vector<TierStats> out = tier_stats_;
  for (std::size_t i = 0; i < out.size(); ++i) out[i].high_water = heaps_[i].high_water();
  return out;
}

}  // namespace ecohmem::flexmalloc
