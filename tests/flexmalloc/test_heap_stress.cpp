// Randomized stress/invariant tests of the ArenaHeap and FlexMalloc:
// under arbitrary alloc/free/realloc interleavings, accounting must stay
// exact, addresses disjoint, and capacity respected.

#include <gtest/gtest.h>

#include <map>

#include "ecohmem/common/rng.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/flexmalloc/heap_manager.hpp"

namespace ecohmem::flexmalloc {
namespace {

class HeapStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapStress, AccountingStaysExactUnderRandomOps) {
  Rng rng(GetParam());
  constexpr Bytes kCapacity = 1 << 20;
  ArenaHeap heap("stress", 1ull << 40, kCapacity);

  std::map<std::uint64_t, Bytes> shadow;  // address -> padded size
  Bytes shadow_used = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = shadow.empty() || rng.next_double() < 0.55;
    if (do_alloc) {
      const Bytes request = 1 + rng.next_below(8192);
      const Bytes padded = (request + 63) / 64 * 64;
      const auto addr = heap.allocate(request);
      if (shadow_used + padded <= kCapacity) {
        ASSERT_TRUE(addr.has_value()) << "step " << step;
        // No overlap with any live block.
        for (const auto& [base, size] : shadow) {
          EXPECT_TRUE(*addr + padded <= base || base + size <= *addr);
        }
        shadow.emplace(*addr, padded);
        shadow_used += padded;
      } else {
        EXPECT_FALSE(addr.has_value()) << "step " << step;
      }
    } else {
      // Free a pseudo-random live block.
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.next_below(shadow.size())));
      const auto freed = heap.deallocate(it->first);
      ASSERT_TRUE(freed.has_value());
      EXPECT_EQ(*freed, it->second);
      shadow_used -= it->second;
      shadow.erase(it);
    }
    ASSERT_EQ(heap.used(), shadow_used) << "step " << step;
    ASSERT_EQ(heap.live_blocks(), shadow.size()) << "step " << step;
  }

  // Drain and confirm the heap returns to empty.
  while (!shadow.empty()) {
    ASSERT_TRUE(heap.deallocate(shadow.begin()->first).has_value());
    shadow.erase(shadow.begin());
  }
  EXPECT_EQ(heap.used(), 0u);
}

TEST_P(HeapStress, FlexMallocNeverLosesBytes) {
  // Random malloc/free/realloc plus whole-block and sub-range migration
  // against a shadow of every live block. After every step each tier's
  // heap usage, block count and routing counters, and the migration
  // counters, must equal the shadow's tallies exactly.
  Rng rng(GetParam() * 31 + 7);
  constexpr Bytes kAlign = 64;
  const bom::CallStack stacks[3] = {
      bom::CallStack{{{0, 0x100}}}, bom::CallStack{{{0, 0x200}}}, bom::CallStack{{{0, 0x300}}}};
  const std::size_t wanted_tier[3] = {0, 1, 1};  // dram, pmem, unlisted -> fallback

  ParsedReport report;
  report.fallback_tier = "pmem";
  report.entries.push_back(ReportEntry{stacks[0], "dram", 0});
  report.entries.push_back(ReportEntry{stacks[1], "pmem", 0});
  auto fm = FlexMalloc::create({{"dram", 1 << 18}, {"pmem", 1 << 22}}, report, nullptr);
  ASSERT_TRUE(fm.has_value());

  struct Block {
    std::size_t tier = 0;
    Bytes size = 0;  // padded
  };
  std::map<std::uint64_t, Block> live;
  struct Tally {
    Bytes used = 0;
    std::uint64_t blocks = 0;
    std::uint64_t allocations = 0;
    Bytes bytes = 0;
  };
  Tally tally[2];
  std::uint64_t redirects = 0;
  std::uint64_t moved = 0;
  Bytes moved_bytes = 0;
  std::uint64_t refused = 0;

  const auto add = [&](std::uint64_t address, std::size_t tier, Bytes size) {
    live.emplace(address, Block{tier, size});
    tally[tier].used += size;
    ++tally[tier].blocks;
  };
  const auto drop = [&](std::map<std::uint64_t, Block>::iterator it) {
    tally[it->second.tier].used -= it->second.size;
    --tally[it->second.tier].blocks;
    live.erase(it);
  };
  const auto record = [&](const Expected<Allocation>& a, int site, Bytes request) {
    const Bytes padded = (request + kAlign - 1) / kAlign * kAlign;
    if (!a) {
      // Only an exhausted fallback heap may fail an allocation.
      ASSERT_GT(tally[1].used + padded, fm->heap(1).capacity());
      return;
    }
    if (a->redirected) {
      ++redirects;
      EXPECT_EQ(a->tier_index, fm->fallback_index());
    } else {
      EXPECT_EQ(a->tier_index, wanted_tier[site]);
    }
    ++tally[a->tier_index].allocations;
    tally[a->tier_index].bytes += request;
    add(a->address, a->tier_index, padded);
  };
  const auto pick = [&] {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.next_below(live.size())));
    return it;
  };

  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.next_double();
    const int site = static_cast<int>(rng.next_below(3));
    const Bytes request = 1 + rng.next_below(8192);
    if (live.empty() || roll < 0.45) {
      record(fm->malloc(stacks[site], request), site, request);
    } else if (roll < 0.65) {
      const auto it = pick();
      ASSERT_TRUE(fm->free(it->first).ok());
      drop(it);
    } else if (roll < 0.75) {
      // realloc frees first, so a failed reallocation loses the block.
      const auto it = pick();
      const auto a = fm->realloc(stacks[site], it->first, request);
      drop(it);
      record(a, site, request);
    } else {
      const auto it = pick();
      const std::uint64_t address = it->first;
      const Block block = it->second;
      const std::size_t target = 1 - block.tier;
      Bytes offset = 0;
      Bytes length = block.size;
      const bool sub_range = roll >= 0.88;
      if (sub_range) {
        const Bytes units = block.size / kAlign;
        offset = rng.next_below(units) * kAlign;
        length = (1 + rng.next_below(units - offset / kAlign)) * kAlign;
      }
      const auto outcome = sub_range ? fm->migrate(address, target, offset, length)
                                     : fm->migrate(address, target);
      ASSERT_TRUE(outcome.has_value()) << outcome.error();
      EXPECT_EQ(outcome->from_tier, block.tier);
      EXPECT_EQ(outcome->bytes, length);
      if (!outcome->moved) {
        ++refused;
        EXPECT_EQ(outcome->address, address);
      } else {
        ++moved;
        moved_bytes += length;
        drop(it);
        if (offset > 0) add(address, block.tier, offset);
        if (offset + length < block.size) {
          add(address + offset + length, block.tier, block.size - offset - length);
        }
        add(outcome->address, target, length);
      }
    }

    const auto stats = fm->stats();
    for (std::size_t t = 0; t < fm->tier_count(); ++t) {
      ASSERT_EQ(fm->heap(t).used(), tally[t].used) << "tier " << t << " step " << step;
      ASSERT_EQ(fm->heap(t).live_blocks(), tally[t].blocks) << "tier " << t << " step " << step;
      ASSERT_EQ(stats[t].allocations, tally[t].allocations) << "tier " << t << " step " << step;
      ASSERT_EQ(stats[t].bytes, tally[t].bytes) << "tier " << t << " step " << step;
      ASSERT_EQ(stats[t].high_water, fm->heap(t).high_water()) << "tier " << t << " step " << step;
    }
    ASSERT_EQ(fm->oom_redirects(), redirects) << "step " << step;
    ASSERT_EQ(fm->migrations(), moved) << "step " << step;
    ASSERT_EQ(fm->migrated_bytes(), moved_bytes) << "step " << step;
    ASSERT_EQ(fm->migration_refusals(), refused) << "step " << step;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(redirects, 0u);

  while (!live.empty()) {
    ASSERT_TRUE(fm->free(live.begin()->first).ok());
    drop(live.begin());
  }
  for (std::size_t t = 0; t < fm->tier_count(); ++t) EXPECT_EQ(fm->heap(t).used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapStress, ::testing::Values(1u, 17u, 23456u, 0xfeedu));

}  // namespace
}  // namespace ecohmem::flexmalloc
