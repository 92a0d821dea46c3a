// The analyzer's object lookups (live_index.hpp) against plain std::
// references, and the fold over the streams that exercise them.

#include "ecohmem/analyzer/live_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/common/rng.hpp"

namespace ecohmem::analyzer {
namespace {

using trace::AllocEvent;
using trace::FreeEvent;
using trace::SampleEvent;
using trace::StackId;
using trace::UncoreBwEvent;

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// The floor rule `LiveIndex::resolve` implements, over a std::map.
StackId reference_resolve(const std::map<std::uint64_t, LiveObject>& live, std::uint64_t addr) {
  auto it = live.upper_bound(addr);
  if (it == live.begin()) return trace::kInvalidStack;
  --it;
  return addr < it->first + it->second.size ? it->second.stack : trace::kInvalidStack;
}

/// FNV-1a over every field of a result, doubles by bit pattern.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h_ = (h_ ^ ((v >> (8 * k)) & 0xff)) * 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    add(u);
  }
  void add(const AnalysisResult& r) {
    add(r.observed_peak_bw_gbs);
    add(std::uint64_t{r.trace_end});
    add(r.unattributed_samples);
    for (const SiteRecord& s : r.sites) {
      add(std::uint64_t{s.stack});
      add(std::uint64_t{s.max_size});
      add(std::uint64_t{s.peak_live_bytes});
      add(s.alloc_count);
      add(s.load_misses);
      add(s.store_misses);
      add(s.avg_load_latency_ns);
      add(std::uint64_t{s.first_alloc});
      add(std::uint64_t{s.last_free});
      add(s.total_lifetime_ns);
      add(s.mean_lifetime_ns);
      add(s.exec_bw_gbs);
      add(s.alloc_time_system_bw_gbs);
      add(s.exec_time_system_bw_gbs);
      add(std::uint64_t{s.has_writes});
    }
    for (const FunctionProfile& f : r.functions) {
      add(f.load_samples);
      add(f.avg_load_latency_ns);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// A seeded allocation stream that grows to `target_live` objects,
/// churns, and frees half of them. Objects overlap, one allocation in
/// eight reuses the start of a live object, one in sixteen is empty,
/// and one allocation or free in 32 is timestamped ten bins back,
/// further than the longest uncore period, so it can land behind the
/// fold horizon of the snapshot before it.
/// Every few operations the stream probes the live set with a batch of
/// 1 to 16 samples, which `LiveIndex` must resolve like the std::map
/// floor: below every start, on starts and ends, past every end.
class ResolverStream {
 public:
  ResolverStream(std::uint64_t seed, std::size_t target_live)
      : rng_(seed), span_(std::max<std::uint64_t>(4096, 192 * target_live)) {
    for (std::uint64_t k = 0; k < kSites; ++k) {
      trace_.stacks.intern(bom::CallStack{{{0, 0x100 + 0x10 * k}}});
    }
    trace_.functions.intern("kernel");
    trace_.functions.intern("halo");

    const std::size_t probe_every = target_live > 1000 ? 64 : 4;
    while (live_.size() < target_live) {
      step(/*alloc_share=*/12);
      if (++ops_ % probe_every == 0) probe();
    }
    for (std::size_t k = 0; k < target_live + 64; ++k) {
      step(/*alloc_share=*/8);
      if (++ops_ % probe_every == 0) probe();
    }
    for (std::size_t k = live_.size() / 2; k > 0; --k) {
      free_one();
      if (++ops_ % probe_every == 0) probe();
    }
    probe();
  }

  [[nodiscard]] const trace::Trace& trace() const { return trace_; }
  [[nodiscard]] std::size_t probes() const { return probes_; }

 private:
  static constexpr std::uint64_t kSites = 8;
  static constexpr std::uint64_t kBase = 0x10000;

  struct Live {
    std::uint64_t id = 0;
    std::uint64_t start = 0;
    Bytes size = 0;
  };

  std::uint64_t next(std::uint64_t n) { return rng_.next_u64() % n; }
  Ns tick() { return now_ += 1 + next(3000); }
  Ns tick_or_back() {
    constexpr Ns kBack = 5'000'000;
    return next(32) == 0 && now_ > kBack ? now_ - kBack : tick();
  }

  void step(std::uint64_t alloc_share) {
    const std::uint64_t r = next(16);
    if (live_.empty() || r < alloc_share) {
      alloc();
    } else {
      free_one();
    }
    // Uncore readings move the fold horizon; now and then one reaches
    // back behind the last snapshot and drops what was carried.
    if (next(8) == 0) {
      const Ns period = next(64) == 0 ? 3'000'000 : 200'000;
      trace_.events.emplace_back(
          UncoreBwEvent{tick(), period, static_cast<double>(next(40)) / 4.0, 0.25});
    }
  }

  void alloc() {
    const std::uint64_t id = next_id_++;
    const std::uint64_t start = !live_.empty() && next(8) == 0
                                    ? live_[next(live_.size())].start
                                    : kBase + next(span_);
    const Bytes size = next(16) == 0 ? 0 : 1 + next(512);
    const auto stack = static_cast<StackId>(next(kSites));
    const Ns time = tick_or_back();
    trace_.events.emplace_back(AllocEvent{time, id, start, size, stack, trace::AllocKind::kMalloc});
    live_.push_back(Live{id, start, size});

    // The index carries the id as its stack, so a wrong object shows.
    const LiveObject obj{size, static_cast<StackId>(id), 0, time, id};
    LiveObject displaced;
    const bool replaced = index_.upsert(start, obj, displaced);
    const auto it = reference_.find(start);
    ASSERT_EQ(replaced, it != reference_.end());
    if (replaced) {
      EXPECT_EQ(displaced.id, it->second.id);
      it->second = obj;
    } else {
      reference_.emplace(start, obj);
    }
  }

  void free_one() {
    const std::size_t k = next(live_.size());
    const Live gone = live_[k];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k));
    trace_.events.emplace_back(FreeEvent{tick_or_back(), gone.id});

    LiveObject out;
    const bool taken = index_.take(gone.start, gone.id, out);
    const auto it = reference_.find(gone.start);
    const bool expected = it != reference_.end() && it->second.id == gone.id;
    ASSERT_EQ(taken, expected) << "id " << gone.id;
    if (expected) {
      EXPECT_EQ(out.id, gone.id);
      reference_.erase(it);
    }
  }

  void probe() {
    const std::size_t n = 1 + probes_ % LiveIndex::kMaxBatch;
    std::uint64_t addrs[LiveIndex::kMaxBatch];
    for (std::size_t l = 0; l < n; ++l) addrs[l] = probe_address();
    StackId got[LiveIndex::kMaxBatch];
    index_.resolve(addrs, n, got);
    for (std::size_t l = 0; l < n; ++l) {
      ASSERT_EQ(got[l], reference_resolve(reference_, addrs[l]))
          << "address " << addrs[l] << ", lane " << l << " of " << n << ", "
          << reference_.size() << " live";
      // The stream samples the same addresses for the fold.
      trace_.events.emplace_back(SampleEvent{tick(), addrs[l], 1.0 + static_cast<double>(next(4)),
                                             static_cast<double>(next(300)), next(4) == 0,
                                             static_cast<std::uint32_t>(next(2))});
    }
    ++probes_;
  }

  std::uint64_t probe_address() {
    if (reference_.empty() || next(8) == 0) {
      const std::uint64_t edge[] = {0, kBase - 1, kBase + span_ + 600, kMaxU64};
      return edge[next(4)];
    }
    const auto it = std::next(reference_.begin(),
                              static_cast<std::ptrdiff_t>(next(reference_.size())));
    const std::uint64_t start = it->first;
    const std::uint64_t end = start + it->second.size;
    switch (next(6)) {
      case 0: return start - 1;
      case 1: return start;
      case 2: return end > start ? end - 1 : start;
      case 3: return end;
      case 4: return reference_.begin()->first - 1;  // below every start
      default: return start + next(it->second.size + 1);
    }
  }

  Rng rng_;
  std::uint64_t span_;
  trace::Trace trace_;
  std::vector<Live> live_;  ///< live in the stream, displaced ones included
  LiveIndex index_;
  std::map<std::uint64_t, LiveObject> reference_;
  std::uint64_t next_id_ = 1;
  Ns now_ = 0;
  std::size_t ops_ = 0;
  std::size_t probes_ = 0;
};

/// Digest of the final result of ingesting `t` in slices of `slice`
/// events, with a snapshot whenever a slice crosses a multiple of 4096
/// events (so the carried folds are built, extended and dropped).
std::uint64_t digest_in_slices(const trace::Trace& t, std::size_t slice,
                               const AnalyzerOptions& options) {
  IncrementalAggregator inc(t.stacks, t.functions, options);
  for (std::size_t lo = 0; lo < t.events.size(); lo += slice) {
    const std::size_t n = std::min(slice, t.events.size() - lo);
    const Status status = inc.ingest(t.events.data() + lo, n);
    EXPECT_TRUE(status.ok()) << status.error();
    if ((lo + n) / 4096 != lo / 4096) {
      const auto snapshot = inc.finalize();
      EXPECT_TRUE(snapshot.has_value()) << snapshot.error();
    }
  }
  const auto result = inc.finalize();
  EXPECT_TRUE(result.has_value()) << result.error();
  Digest digest;
  if (result) digest.add(*result);
  return digest.value();
}

TEST(LiveIndex, ResolveMatchesTheMapFloorAndSlicesAgree) {
  AnalyzerOptions options;
  options.bw_bin_ns = 500'000;
  options.alloc_window_ns = 2'000'000;
  const std::size_t sizes[] = {0, 1, 2, 31, 32, 33, 65, 300, 2000, 20'000};
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    SCOPED_TRACE("target live " + std::to_string(sizes[k]));
    const ResolverStream stream(/*seed=*/100 + k, sizes[k]);
    if (HasFatalFailure()) return;
    EXPECT_GT(stream.probes(), 0u);

    const trace::Trace& t = stream.trace();
    const std::uint64_t whole = digest_in_slices(t, t.events.size() + 1, options);
    for (const std::size_t slice : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      EXPECT_EQ(digest_in_slices(t, slice, options), whole) << "slices of " << slice;
    }
  }
}

TEST(ObjectIdTable, ExtremeIdsAndReuseAfterFree) {
  ObjectIdTable table;
  EXPECT_EQ(table.find(0), ObjectIdTable::kNotFound);
  EXPECT_EQ(table.find(kMaxU64), ObjectIdTable::kNotFound);

  table.assign(0, 0x1000);
  table.assign(kMaxU64, 0x2000);
  ASSERT_NE(table.find(0), ObjectIdTable::kNotFound);
  ASSERT_NE(table.find(kMaxU64), ObjectIdTable::kNotFound);
  EXPECT_EQ(table.address(table.find(0)), 0x1000u);
  EXPECT_EQ(table.address(table.find(kMaxU64)), 0x2000u);
  EXPECT_EQ(table.size(), 2u);

  // A second allocation under a live id takes its address.
  table.assign(0, 0x3000);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.address(table.find(0)), 0x3000u);

  table.erase(table.find(0));
  EXPECT_EQ(table.find(0), ObjectIdTable::kNotFound);
  EXPECT_EQ(table.address(table.find(kMaxU64)), 0x2000u);
  table.assign(0, 0x4000);  // reused after its free
  EXPECT_EQ(table.address(table.find(0)), 0x4000u);
  table.erase(table.find(kMaxU64));
  EXPECT_EQ(table.find(kMaxU64), ObjectIdTable::kNotFound);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ObjectIdTable, GrowsThroughRehashesWithFreesBetween) {
  // Sequential ids (the profiler's), random ones, and ids that differ
  // only in their high bits, which a multiplicative hash must still
  // spread; a third of the live ids are freed between growth rounds.
  ObjectIdTable table;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(42);
  std::uint64_t sequential = 0;
  for (int round = 0; round < 7; ++round) {
    const std::size_t inserts = std::size_t{500} << round;
    for (std::size_t k = 0; k < inserts; ++k) {
      std::uint64_t id = 0;
      switch (k % 3) {
        case 0: id = sequential++; break;
        case 1: id = rng.next_u64(); break;
        default: id = (rng.next_u64() % 4096) << 52; break;
      }
      const std::uint64_t address = rng.next_u64();
      table.assign(id, address);
      reference[id] = address;
    }
    std::vector<std::uint64_t> ids;
    for (const auto& [id, address] : reference) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::size_t k = 0; k < ids.size(); k += 3) {
      const std::size_t slot = table.find(ids[k]);
      ASSERT_NE(slot, ObjectIdTable::kNotFound) << "id " << ids[k];
      table.erase(slot);
      reference.erase(ids[k]);
      EXPECT_EQ(table.find(ids[k]), ObjectIdTable::kNotFound) << "id " << ids[k];
    }
    ASSERT_EQ(table.size(), reference.size()) << "round " << round;
    for (const auto& [id, address] : reference) {
      const std::size_t slot = table.find(id);
      ASSERT_NE(slot, ObjectIdTable::kNotFound) << "id " << id << ", round " << round;
      EXPECT_EQ(table.address(slot), address) << "id " << id;
    }
  }
}

TEST(Analyzer, ObjectIdsZeroAndMaxReplayLikeAnyOther) {
  trace::Trace t;
  const StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  t.events.emplace_back(AllocEvent{10, 0, 0x1000, 64, s, trace::AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{20, kMaxU64, 0x2000, 64, s, trace::AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{30, 0});
  t.events.emplace_back(AllocEvent{40, 0, 0x3000, 64, s, trace::AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{50, kMaxU64});
  t.events.emplace_back(FreeEvent{70, 0});
  const auto result = analyze(t);
  ASSERT_TRUE(result.has_value()) << result.error();
  ASSERT_EQ(result->sites.size(), 1u);
  EXPECT_EQ(result->sites[0].alloc_count, 3u);
  EXPECT_EQ(result->sites[0].total_lifetime_ns, 20.0 + 30.0 + 30.0);
  EXPECT_EQ(result->sites[0].last_free, 70u);

  t.events.emplace_back(FreeEvent{80, kMaxU64});
  const auto twice = analyze(t);
  ASSERT_FALSE(twice.has_value());
  EXPECT_EQ(twice.error(), "free event for unknown object id 18446744073709551615");
}

}  // namespace
}  // namespace ecohmem::analyzer
