#include "ecohmem/flexmalloc/heap_manager.hpp"

#include <algorithm>

namespace ecohmem::flexmalloc {

ArenaHeap::ArenaHeap(std::string name, std::uint64_t base, Bytes capacity, Bytes alignment)
    : name_(std::move(name)),
      base_(base),
      capacity_(capacity),
      alignment_(alignment > 0 ? alignment : 64),
      cursor_(base) {}

Expected<std::uint64_t> ArenaHeap::allocate(Bytes size) {
  if (size == 0) size = alignment_;
  const Bytes padded = (size + alignment_ - 1) / alignment_ * alignment_;

  if (used_ + padded > capacity_) {
    return unexpected("heap '" + name_ + "' out of capacity (used " + std::to_string(used_) +
                      ", request " + std::to_string(padded) + ", capacity " +
                      std::to_string(capacity_) + ")");
  }

  // First-fit over the free list, else bump the cursor.
  std::uint64_t address = 0;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= padded) {
      address = it->first;
      const Bytes remainder = it->second - padded;
      free_.erase(it);
      if (remainder > 0) free_.emplace(address + padded, remainder);
      break;
    }
  }
  if (address == 0) {
    address = cursor_;
    cursor_ += padded;
  }

  live_.emplace(address, padded);
  used_ += padded;
  high_water_ = std::max(high_water_, used_);
  return address;
}

Expected<Bytes> ArenaHeap::deallocate(std::uint64_t address) {
  const auto it = live_.find(address);
  if (it == live_.end()) {
    return unexpected("heap '" + name_ + "': free of unknown address");
  }
  const Bytes size = it->second;
  live_.erase(it);
  release(address, size);
  return size;
}

Expected<Bytes> ArenaHeap::release_range(std::uint64_t address, Bytes offset, Bytes length) {
  const auto it = live_.find(address);
  if (it == live_.end()) {
    return unexpected("heap '" + name_ + "': release_range on unknown address");
  }
  const Bytes size = it->second;
  if (length == 0 || offset > size || length > size - offset) {
    return unexpected("heap '" + name_ + "': release_range [" + std::to_string(offset) + ", " +
                      std::to_string(offset + length) + ") outside block of " +
                      std::to_string(size) + " bytes");
  }
  if (offset % alignment_ != 0 ||
      (offset + length != size && length % alignment_ != 0)) {
    return unexpected("heap '" + name_ + "': release_range must be aligned to " +
                      std::to_string(alignment_) + " bytes");
  }

  // Split the live block around the released middle (0, 1 or 2 remnants).
  live_.erase(it);
  if (offset > 0) live_.emplace(address, offset);
  if (offset + length < size) {
    live_.emplace(address + offset + length, size - offset - length);
  }
  release(address + offset, length);
  return length;
}

void ArenaHeap::release(std::uint64_t address, Bytes size) {
  used_ -= size;
  auto pos = free_.emplace(address, size).first;
  if (pos != free_.begin()) {
    auto prev = std::prev(pos);
    if (prev->first + prev->second == pos->first) {
      prev->second += pos->second;
      free_.erase(pos);
      pos = prev;
    }
  }
  if (auto next = std::next(pos); next != free_.end() && pos->first + pos->second == next->first) {
    pos->second += next->second;
    free_.erase(next);
  }
}

Expected<Bytes> ArenaHeap::block_size(std::uint64_t address) const {
  const auto it = live_.find(address);
  if (it == live_.end()) {
    return unexpected("heap '" + name_ + "': no live block at this address");
  }
  return it->second;
}

bool ArenaHeap::owns(std::uint64_t address) const {
  return live_.contains(address) ||
         (address >= base_ && address < cursor_);
}

}  // namespace ecohmem::flexmalloc
