#pragma once

/// \file heap_manager.hpp
/// Per-tier heaps behind FlexMalloc (§IV-C).
///
/// On the real system these are memkind (PMem), POSIX malloc (DRAM) or
/// libnuma. Here each tier gets an `ArenaHeap`: a virtual-address-space
/// manager with first-fit free-list reuse and capacity accounting. The
/// addresses it hands out are simulated VAs — distinct non-overlapping
/// ranges per tier, so the profiler's sample attribution and the
/// analyzer's interval lookup behave exactly as with real pointers.
///
/// Single owner (docs/threading.md): an `ArenaHeap` belongs to one
/// FlexMalloc, which belongs to one thread. It takes no locks and is
/// not safe to share between threads.

#include <cstdint>
#include <map>
#include <string>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::flexmalloc {

/// Simulated-address-space heap with first-fit reuse of freed blocks.
class ArenaHeap {
 public:
  /// `base`: start of this heap's VA range (ranges must not overlap
  /// across heaps). Blocks are aligned to `alignment`.
  ArenaHeap(std::string name, std::uint64_t base, Bytes capacity, Bytes alignment = 64);

  /// Allocates `size` bytes; fails when the tier is out of capacity.
  [[nodiscard]] Expected<std::uint64_t> allocate(Bytes size);

  /// Frees the block starting at `address`; returns its size.
  [[nodiscard]] Expected<Bytes> deallocate(std::uint64_t address);

  /// True if `address` belongs to this heap.
  [[nodiscard]] bool owns(std::uint64_t address) const;

  /// Bytes currently allocated (padded block sizes).
  [[nodiscard]] Bytes used() const { return used_; }

  /// Total capacity available for allocations.
  [[nodiscard]] Bytes capacity() const { return capacity_; }

  /// Tier name this heap backs (matches the report's tier names).
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Padded size of the live block at `address`; fails when no live
  /// block starts there. Used by FlexMalloc's object migration to size
  /// the destination allocation before touching the source block.
  [[nodiscard]] Expected<Bytes> block_size(std::uint64_t address) const;

  /// Releases the sub-range `[address + offset, address + offset +
  /// length)` of the live block at `address` back to the free list,
  /// leaving up to two live remnant blocks (before/after the range).
  /// The freed middle coalesces with free neighbours exactly like a
  /// whole-block free. `offset` must be a multiple of `alignment()`, and
  /// `length` must either be a multiple of `alignment()` or reach the
  /// end of the block (so remnant starts stay aligned). Releasing the
  /// whole block is equivalent to `deallocate`. Returns the bytes
  /// released. This is the heap half of sub-range (page-granular)
  /// object migration — FlexMalloc carves chunks out of huge blocks
  /// instead of moving them whole.
  [[nodiscard]] Expected<Bytes> release_range(std::uint64_t address, Bytes offset, Bytes length);

  /// Every allocation is padded to a multiple of `alignment()`, so a
  /// request for `size` bytes consumes at most `size + alignment()`
  /// bytes of capacity (zero-byte requests consume exactly one unit).
  [[nodiscard]] Bytes alignment() const { return alignment_; }

  /// Number of currently live (allocated, unfreed) blocks.
  [[nodiscard]] std::uint64_t live_blocks() const { return live_.size(); }

  /// Highest `used()` value ever observed.
  [[nodiscard]] Bytes high_water() const { return high_water_; }

 private:
  /// Returns `[address, address + size)` to the free list, coalescing
  /// it with free neighbours, and takes it off `used()`.
  void release(std::uint64_t address, Bytes size);

  std::string name_;
  std::uint64_t base_;
  Bytes capacity_;
  Bytes alignment_;

  std::uint64_t cursor_;  ///< bump pointer
  std::map<std::uint64_t, Bytes> live_;  ///< address -> size
  std::map<std::uint64_t, Bytes> free_;  ///< address -> size, coalesced
  Bytes used_ = 0;
  Bytes high_water_ = 0;
};

}  // namespace ecohmem::flexmalloc
