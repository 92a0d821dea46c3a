#pragma once

/// \file live_index.hpp
/// The two lookups of the analyzer's object replay
/// (`IncrementalAggregator`, incremental.hpp): live objects by start
/// address, which every sample resolves against, and object ids to
/// start addresses, which every free looks up. Both are defined in
/// incremental.cpp, next to the fold loop that calls them.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "ecohmem/common/units.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::analyzer {

/// One live allocation, keyed by start address in `LiveIndex`.
struct LiveObject {
  Bytes size = 0;
  trace::StackId stack = trace::kInvalidStack;
  /// The aggregator's slot for this object's carried window sum; it
  /// fills what would otherwise be padding, so the entries the sample
  /// path reads stay 32 bytes.
  std::uint32_t window = 0;
  Ns alloc_time = 0;
  std::uint64_t id = 0;
};

/// Live objects ordered by start address. Chunks hold sorted starts
/// and their objects in parallel vectors; `mins_` holds each chunk's
/// first start, ascending. A chunk that grows past `kChunkCapacity`
/// splits in two, one that empties is dropped, so no chunk is empty.
class LiveIndex {
 public:
  /// Most addresses one `resolve` call takes.
  static constexpr std::size_t kMaxBatch = 16;

  /// Inserts the object starting at `start`. If one already starts
  /// there (address reuse while live), it is replaced, copied into
  /// `displaced` first, and the call returns true.
  bool upsert(std::uint64_t start, const LiveObject& obj, LiveObject& displaced);

  /// Copies the object starting at `start` into `out` and removes it;
  /// false if no object with id `id` starts there.
  bool take(std::uint64_t start, std::uint64_t id, LiveObject& out);

  /// Resolves `n` (at most `kMaxBatch`) addresses: `stacks[l]` is the
  /// stack of the object with the greatest start at or below
  /// `addrs[l]` if the address lies below that object's end, and
  /// `trace::kInvalidStack` otherwise. Each address takes two binary
  /// searches, over the chunk minima and then within one chunk; the
  /// lanes run them step by step side by side, so the loads of
  /// different addresses overlap instead of waiting on each other.
  void resolve(const std::uint64_t* addrs, std::size_t n, trace::StackId* stacks) const;

  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  /// Calls `fn(object)` for every live object in ascending start order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) {
      for (const LiveObject& obj : chunk.objects) fn(obj);
    }
  }

 private:
  /// With batched resolution, best of 8 alternating fold runs on a
  /// 4-vCPU Xeon: the 2M-event analyze-churn trace (about 10K live
  /// objects) folds in 76.7 ms at capacity 32, 77.3 at 64 and 79.8 at
  /// 128; the 1.5M-event serve-mixed trace, in 4096-event slices, in
  /// 55.6, 57.4 and 58.2 ms. Short chunks keep inserts, erases and the
  /// in-chunk search short, and splits stay rare (about 600 over the
  /// serve-mixed trace, which allocates 90K objects).
  static constexpr std::size_t kChunkCapacity = 32;

  struct Chunk {
    std::vector<std::uint64_t> starts;  ///< ascending
    std::vector<LiveObject> objects;    ///< objects[k] starts at starts[k]
  };

  std::vector<std::uint64_t> mins_;  ///< chunks_[c].starts.front(), ascending
  std::vector<Chunk> chunks_;
};

/// Object id -> start address of the object allocated under that id.
/// Open addressing with linear probing over a power-of-two slot array,
/// at most half full, grown by doubling; a removal shifts the entries
/// after it back, so no tombstones accumulate. Occupancy is a flag of
/// its own, so every id, 0 and 2^64 - 1 included, is a valid key.
class ObjectIdTable {
 public:
  static constexpr std::size_t kNotFound = std::numeric_limits<std::size_t>::max();

  /// Maps `id` to `address`, replacing an earlier mapping of `id`.
  void assign(std::uint64_t id, std::uint64_t address);

  /// The slot holding `id`, or `kNotFound`.
  [[nodiscard]] std::size_t find(std::uint64_t id) const;

  /// The address stored in `slot`, a result of `find`.
  [[nodiscard]] std::uint64_t address(std::size_t slot) const { return slots_[slot].address; }

  /// Removes the mapping in `slot`, a result of `find` with no
  /// `assign` or `erase` since; other slot numbers become stale.
  void erase(std::size_t slot);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::uint64_t address = 0;
    bool used = false;
  };

  /// First slot probed for `id` (Fibonacci hashing: the top bits of a
  /// multiplicative hash, so consecutive ids spread out).
  [[nodiscard]] std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;  ///< empty, or a power of two >= 16 slots
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace ecohmem::analyzer
