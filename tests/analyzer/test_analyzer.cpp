#include "ecohmem/analyzer/aggregator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace ecohmem::analyzer {
namespace {

using trace::AllocEvent;
using trace::AllocKind;
using trace::FreeEvent;
using trace::SampleEvent;
using trace::StackId;
using trace::Trace;
using trace::UncoreBwEvent;

Trace simple_trace() {
  Trace t;
  t.sample_rate_hz = 100.0;
  const StackId site_a = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const StackId site_b = t.stacks.intern(bom::CallStack{{{0, 0x20}}});
  const std::uint32_t fn = t.functions.intern("kernel");

  // Object 1 at site A: [100ns, 1s), 4 KiB at 0x1000.
  t.events.emplace_back(AllocEvent{100, 1, 0x1000, 4096, site_a, AllocKind::kMalloc});
  // Object 2 at site B: [200ns, end), 64 KiB at 0x10000.
  t.events.emplace_back(AllocEvent{200, 2, 0x10000, 65536, site_b, AllocKind::kMalloc});

  // Samples: loads on object 1 (weight 10 each), store on object 2.
  t.events.emplace_back(SampleEvent{500, 0x1000 + 64, 10.0, 200.0, false, fn});
  t.events.emplace_back(SampleEvent{600, 0x1000 + 128, 10.0, 100.0, false, fn});
  t.events.emplace_back(SampleEvent{700, 0x10000 + 64, 5.0, 0.0, true, fn});
  // Unattributed sample (no live object there).
  t.events.emplace_back(SampleEvent{800, 0xdead0000, 2.0, 0.0, false, fn});

  t.events.emplace_back(FreeEvent{1'000'000'000, 1});
  return t;
}

TEST(Analyzer, AggregatesPerSite) {
  const auto result = analyze(simple_trace());
  ASSERT_TRUE(result.has_value()) << result.error();
  ASSERT_EQ(result->sites.size(), 2u);

  const SiteRecord& a = result->sites[0];
  EXPECT_EQ(a.alloc_count, 1u);
  EXPECT_EQ(a.max_size, 4096u);
  EXPECT_DOUBLE_EQ(a.load_misses, 20.0);
  EXPECT_DOUBLE_EQ(a.store_misses, 0.0);
  EXPECT_FALSE(a.has_writes);
  // Weighted latency: (10*200 + 10*100) / 20 = 150.
  EXPECT_DOUBLE_EQ(a.avg_load_latency_ns, 150.0);

  const SiteRecord& b = result->sites[1];
  EXPECT_DOUBLE_EQ(b.store_misses, 5.0);
  EXPECT_TRUE(b.has_writes);
}

TEST(Analyzer, LifetimeWindows) {
  const auto result = analyze(simple_trace());
  ASSERT_TRUE(result.has_value());
  const SiteRecord& a = result->sites[0];
  ASSERT_EQ(a.windows.size(), 1u);
  EXPECT_EQ(a.windows[0].start, 100u);
  EXPECT_EQ(a.windows[0].end, 1'000'000'000u);
  // Object 2 never freed: window closed at trace end.
  const SiteRecord& b = result->sites[1];
  ASSERT_EQ(b.windows.size(), 1u);
  EXPECT_EQ(b.windows[0].end, result->trace_end);
}

TEST(Analyzer, UnattributedSamplesCounted) {
  const auto result = analyze(simple_trace());
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->unattributed_samples, 2.0);
}

TEST(Analyzer, PeakLiveBytesTracksOverlap) {
  Trace t;
  const StackId site = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  t.events.emplace_back(AllocEvent{10, 1, 0x1000, 100, site, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{20, 2, 0x2000, 100, site, AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{30, 1});
  t.events.emplace_back(AllocEvent{40, 3, 0x3000, 100, site, AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{50, 2});
  t.events.emplace_back(FreeEvent{60, 3});
  const auto result = analyze(t);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->sites[0].alloc_count, 3u);
  EXPECT_EQ(result->sites[0].peak_live_bytes, 200u);
  EXPECT_EQ(result->sites[0].max_size, 100u);
}

TEST(Analyzer, RejectsUnknownFree) {
  Trace t;
  t.events.emplace_back(FreeEvent{10, 99});
  EXPECT_FALSE(analyze(t).has_value());
}

TEST(Analyzer, RejectsInvalidStackId) {
  Trace t;
  t.events.emplace_back(AllocEvent{10, 1, 0x1000, 64, 42, AllocKind::kMalloc});
  EXPECT_FALSE(analyze(t).has_value());
}

TEST(Analyzer, UncoreEventsDriveBandwidthTimeline) {
  Trace t;
  const StackId site = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  AnalyzerOptions opt;
  opt.bw_bin_ns = 1000;
  opt.alloc_window_ns = 1000;

  // High-bandwidth plateau before the allocation at t=10000.
  for (Ns time = 1000; time <= 10'000; time += 1000) {
    t.events.emplace_back(UncoreBwEvent{time, 1000, 20.0, 5.0});
  }
  t.events.emplace_back(AllocEvent{10'000, 1, 0x1000, 64, site, AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{20'000, 1});

  const auto result = analyze(t, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->observed_peak_bw_gbs, 25.0, 1.0);
  EXPECT_GT(result->sites[0].alloc_time_system_bw_gbs, 10.0);
}

TEST(Analyzer, ExecBwDerivedFromCountersOverLifetime) {
  Trace t;
  const StackId site = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const std::uint32_t fn = t.functions.intern("k");
  t.events.emplace_back(AllocEvent{0, 1, 0x1000, 1 << 20, site, AllocKind::kMalloc});
  // 1000 weighted misses over a 64000 ns lifetime = 1000*64B/64000ns = 1 GB/s.
  t.events.emplace_back(SampleEvent{100, 0x1000, 1000.0, 150.0, false, fn});
  t.events.emplace_back(FreeEvent{64'000, 1});
  const auto result = analyze(t);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->sites[0].exec_bw_gbs, 1.0, 0.01);
}

TEST(Analyzer, FunctionProfilesAggregateLoadSamples) {
  const auto result = analyze(simple_trace());
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->functions.size(), 1u);
  EXPECT_EQ(result->functions[0].name, "kernel");
  EXPECT_DOUBLE_EQ(result->functions[0].load_samples, 22.0);  // includes unattributed
}

TEST(Analyzer, MalformedTraceFailsWithItsReason) {
  // Freeing an id a second time fails the replay with an error naming
  // the object: the first free forgot the id, so it is unknown.
  Trace t;
  const StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  t.events.emplace_back(AllocEvent{1, 7, 0x1000, 64, s, AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{2, 7});
  t.events.emplace_back(FreeEvent{3, 7});
  const auto result = analyze(t);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), "free event for unknown object id 7");
}

TEST(Analyzer, FreeOfAnAddressReusedWhileLiveIsADoubleFree) {
  // B reuses A's address while A is live, so the first free (of A)
  // drops the object at that address; B's id is still known but
  // nothing is live at its address any more.
  Trace t;
  const StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  t.events.emplace_back(AllocEvent{1, 7, 0x1000, 64, s, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{2, 8, 0x1000, 32, s, AllocKind::kMalloc});
  t.events.emplace_back(FreeEvent{3, 7});
  t.events.emplace_back(FreeEvent{4, 8});
  const auto result = analyze(t);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), "double free of object id 8");
}

/// Bit pattern of a double: -0.0 != +0.0, exactly the "bit-identical"
/// contract.
std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

TEST(Analyzer, OutOfTableFunctionIdsSurvive) {
  // Samples naming function ids past the function table land in the
  // overflow map next to the table-indexed entries; a store-only sample
  // still materializes its function's entry with zero load samples.
  Trace t;
  const StackId s = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const std::uint32_t fn = t.functions.intern("known");
  t.events.emplace_back(AllocEvent{1, 1, 0x1000, 4096, s, AllocKind::kMalloc});
  t.events.emplace_back(SampleEvent{2, 0x1004, 2.0, 120.0, false, fn});
  t.events.emplace_back(SampleEvent{3, 0x1008, 1.5, 90.0, false, /*fn=*/7777});
  t.events.emplace_back(SampleEvent{4, 0x100c, 1.0, 0.0, true, /*fn=*/8888});
  t.events.emplace_back(FreeEvent{5, 1});

  const auto result = analyze(t);
  ASSERT_TRUE(result.has_value()) << result.error();
  ASSERT_EQ(result->sites.size(), 1u);
  const SiteRecord& site = result->sites[0];
  EXPECT_EQ(bits(site.load_misses), bits(3.5));
  EXPECT_EQ(bits(site.store_misses), bits(1.0));
  EXPECT_EQ(bits(site.avg_load_latency_ns), bits((2.0 * 120.0 + 1.5 * 90.0) / 3.5));
  EXPECT_TRUE(site.has_writes);
  EXPECT_EQ(bits(result->unattributed_samples), bits(0.0));

  // Sorted by name; the two unnamed ids ("?") keep id order.
  ASSERT_EQ(result->functions.size(), 3u);
  EXPECT_EQ(result->functions[0].name, "?");
  EXPECT_EQ(bits(result->functions[0].load_samples), bits(1.5));
  EXPECT_EQ(bits(result->functions[0].avg_load_latency_ns), bits(90.0));
  EXPECT_EQ(result->functions[1].name, "?");
  EXPECT_EQ(bits(result->functions[1].load_samples), bits(0.0));
  EXPECT_EQ(bits(result->functions[1].avg_load_latency_ns), bits(0.0));
  EXPECT_EQ(result->functions[2].name, "known");
  EXPECT_EQ(bits(result->functions[2].load_samples), bits(2.0));
  EXPECT_EQ(bits(result->functions[2].avg_load_latency_ns), bits(120.0));
}

TEST(ClassifyRegion, PaperThresholds) {
  // B_low < 20%, B_mid 20-40%, B_high > 40% of peak.
  EXPECT_EQ(classify_region(1.0, 10.0), BandwidthRegion::kLow);
  EXPECT_EQ(classify_region(3.0, 10.0), BandwidthRegion::kMid);
  EXPECT_EQ(classify_region(4.0, 10.0), BandwidthRegion::kMid);
  EXPECT_EQ(classify_region(5.0, 10.0), BandwidthRegion::kHigh);
  EXPECT_EQ(to_string(BandwidthRegion::kLow), "B_low");
  EXPECT_EQ(to_string(BandwidthRegion::kMid), "B_mid");
  EXPECT_EQ(to_string(BandwidthRegion::kHigh), "B_high");
}

TEST(LiveWindow, Containment) {
  const LiveWindow outer{10, 100};
  const LiveWindow inner{20, 90};
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_EQ(outer.duration(), 90u);
}

}  // namespace
}  // namespace ecohmem::analyzer
