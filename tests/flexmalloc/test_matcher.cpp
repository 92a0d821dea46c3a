#include "ecohmem/flexmalloc/matcher.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ecohmem/common/rng.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"

namespace ecohmem::flexmalloc {
namespace {

bom::ModuleTable test_modules() {
  bom::ModuleTable mt;
  mt.add_module("app.x", 1 << 20, 4 << 20);
  mt.add_module("libm.so", 1 << 20, 1 << 20);
  return mt;
}

bom::SymbolTable test_symbols(const bom::ModuleTable& mt) {
  bom::SymbolTable st(&mt);
  st.add_entry(0, {0x000, "main.cc", 1});
  st.add_entry(0, {0x100, "vector.hpp", 40});
  st.add_entry(1, {0x000, "mpialloc.c", 7});
  return st;
}

// ------------------------------------------------------------ parsing

TEST(ReportParser, ParsesBomReport) {
  const auto mt = test_modules();
  const auto report = parse_report(R"(# ecoHMEM placement report
# format = bom
# fallback = pmem
app.x!0x100 @ dram # size=4096
app.x!0x100 > libm.so!0x20 @ pmem
)",
                                   mt);
  ASSERT_TRUE(report.has_value()) << report.error();
  EXPECT_TRUE(report->is_bom);
  EXPECT_EQ(report->fallback_tier, "pmem");
  ASSERT_EQ(report->entries.size(), 2u);
  EXPECT_EQ(report->entries[0].tier, "dram");
  EXPECT_EQ(report->entries[0].size, 4096u);
  EXPECT_EQ(std::get<bom::CallStack>(report->entries[1].stack).depth(), 2u);
}

TEST(ReportParser, ParsesHumanReadableReport) {
  const auto mt = test_modules();
  const auto report = parse_report(R"(# format = human-readable
# fallback = pmem
vector.hpp:40 > main.cc:1 @ dram # size=128
)",
                                   mt);
  ASSERT_TRUE(report.has_value()) << report.error();
  EXPECT_FALSE(report->is_bom);
  const auto& hs = std::get<bom::HumanStack>(report->entries[0].stack);
  EXPECT_EQ(hs[0].file, "vector.hpp");
}

TEST(ReportParser, AutoDetectsFormatWithoutHeader) {
  const auto mt = test_modules();
  const auto bom_report = parse_report("app.x!0x100 @ dram\n", mt);
  ASSERT_TRUE(bom_report.has_value());
  EXPECT_TRUE(bom_report->is_bom);

  const auto hr_report = parse_report("file.cc:12 @ dram\n", mt);
  ASSERT_TRUE(hr_report.has_value());
  EXPECT_FALSE(hr_report->is_bom);
}

TEST(ReportParser, Rejections) {
  const auto mt = test_modules();
  EXPECT_FALSE(parse_report("app.x!0x100 dram\n", mt).has_value());     // no @
  EXPECT_FALSE(parse_report("ghost.so!0x100 @ dram\n", mt).has_value());  // bad module
  EXPECT_FALSE(parse_report("app.x!0x100 @ \n", mt).has_value());      // empty tier
}

TEST(ReportParser, RejectsMalformedSizeAnnotations) {
  const auto mt = test_modules();
  // Garbage, negative, and 2^64-overflowing sizes must fail loudly with a
  // line number, not silently parse as size = 0.
  const auto garbage = parse_report("app.x!0x100 @ dram # size=banana\n", mt);
  ASSERT_FALSE(garbage.has_value());
  EXPECT_NE(garbage.error().find("line 1"), std::string::npos) << garbage.error();

  const auto negative = parse_report("# header\napp.x!0x100 @ dram # size=-42\n", mt);
  ASSERT_FALSE(negative.has_value());
  EXPECT_NE(negative.error().find("line 2"), std::string::npos) << negative.error();

  const auto overflow = parse_report("app.x!0x100 @ dram # size=99999999999999999999\n", mt);
  ASSERT_FALSE(overflow.has_value());

  const auto trailing = parse_report("app.x!0x100 @ dram # size=4096kb\n", mt);
  ASSERT_FALSE(trailing.has_value());
}

TEST(ReportParser, LoadMissingFileFails) {
  EXPECT_FALSE(load_report("/no/such/report.txt", test_modules()).has_value());
}

// ------------------------------------------------------------ matching

ParsedReport bom_report() {
  ParsedReport r;
  r.is_bom = true;
  r.fallback_tier = "pmem";
  r.entries.push_back(ReportEntry{bom::CallStack{{{0, 0x100}}}, "dram", 0});
  r.entries.push_back(ReportEntry{bom::CallStack{{{0, 0x100}, {1, 0x20}}}, "pmem", 0});
  return r;
}

TEST(Matcher, BomExactMatch) {
  auto m = CallStackMatcher::create(bom_report(), nullptr);
  ASSERT_TRUE(m.has_value());
  const auto hit = m->match(bom::CallStack{{{0, 0x100}}});
  ASSERT_TRUE(hit.matched());
  EXPECT_EQ(*hit.tier, "dram");
  EXPECT_EQ(m->hits(), 1u);
}

TEST(Matcher, BomDepthMatters) {
  auto m = CallStackMatcher::create(bom_report(), nullptr);
  ASSERT_TRUE(m.has_value());
  const auto deep = m->match(bom::CallStack{{{0, 0x100}, {1, 0x20}}});
  ASSERT_TRUE(deep.matched());
  EXPECT_EQ(*deep.tier, "pmem");
  EXPECT_FALSE(m->match(bom::CallStack{{{0, 0x100}, {1, 0x21}}}).matched());
}

TEST(Matcher, BomMissReturnsUnmatched) {
  auto m = CallStackMatcher::create(bom_report(), nullptr);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->match(bom::CallStack{{{0, 0x9999}}}).matched());
  EXPECT_EQ(m->lookups(), 1u);
  EXPECT_EQ(m->hits(), 0u);
}

TEST(Matcher, HumanReadableMatchesViaSymbolization) {
  const auto mt = test_modules();
  const auto st = test_symbols(mt);
  ParsedReport r;
  r.is_bom = false;
  r.fallback_tier = "pmem";
  r.entries.push_back(ReportEntry{bom::HumanStack{{"vector.hpp", 40}}, "dram", 0});

  auto m = CallStackMatcher::create(r, &st);
  ASSERT_TRUE(m.has_value());
  // Frame at offset 0x140 symbolizes to vector.hpp:40.
  const auto hit = m->match(bom::CallStack{{{0, 0x140}}});
  ASSERT_TRUE(hit.matched());
  EXPECT_EQ(*hit.tier, "dram");
}

TEST(Matcher, HumanReadableRequiresSymbolTable) {
  ParsedReport r;
  r.is_bom = false;
  r.entries.push_back(ReportEntry{bom::HumanStack{{"a.cc", 1}}, "dram", 0});
  EXPECT_FALSE(CallStackMatcher::create(r, nullptr).has_value());
}

TEST(Matcher, HumanReadableStrippedFrameFallsBack) {
  const auto mt = test_modules();
  const auto st = test_symbols(mt);
  ParsedReport r;
  r.is_bom = false;
  r.entries.push_back(ReportEntry{bom::HumanStack{{"vector.hpp", 40}}, "dram", 0});
  auto m = CallStackMatcher::create(r, &st);
  ASSERT_TRUE(m.has_value());

  bom::ModuleTable stripped = test_modules();
  // Module 1 has symbols only at offset 0; a frame in module 0 below the
  // first entry cannot be symbolized -> unmatched.
  bom::SymbolTable empty(&stripped);
  auto m2 = CallStackMatcher::create(r, &empty);
  ASSERT_TRUE(m2.has_value());
  EXPECT_FALSE(m2->match(bom::CallStack{{{0, 0x140}}}).matched());
}

TEST(Matcher, HrMatchingCostsMoreThanBom) {
  // The §VI claim, measured: same report content, both formats; the HR
  // path accumulates symbolization cost, the BOM path only integer work.
  const auto mt = test_modules();
  const auto st = test_symbols(mt);

  auto bom_m = CallStackMatcher::create(bom_report(), nullptr);
  ASSERT_TRUE(bom_m.has_value());

  ParsedReport hr;
  hr.is_bom = false;
  hr.entries.push_back(ReportEntry{bom::HumanStack{{"vector.hpp", 40}}, "dram", 0});
  auto hr_m = CallStackMatcher::create(hr, &st);
  ASSERT_TRUE(hr_m.has_value());

  const bom::CallStack probe{{{0, 0x140}}};
  for (int i = 0; i < 1000; ++i) {
    (void)bom_m->match(probe);
    (void)hr_m->match(probe);
  }
  EXPECT_GT(hr_m->matching_cost_ns(), 100.0 * bom_m->matching_cost_ns());
}

TEST(Matcher, EmptyMatcherMatchesNothing) {
  CallStackMatcher m;
  EXPECT_FALSE(m.match(bom::CallStack{{{0, 0x100}}}).matched());
}

}  // namespace
}  // namespace ecohmem::flexmalloc

namespace ecohmem::flexmalloc {
namespace {

// ------------------------------------------------- suffix-depth matching

ParsedReport deep_report() {
  ParsedReport r;
  r.is_bom = true;
  r.fallback_tier = "pmem";
  // Same innermost frames, different outer wrappers.
  r.entries.push_back(
      ReportEntry{bom::CallStack{{{0, 0x100}, {0, 0x200}, {1, 0x900}}}, "dram", 0});
  r.entries.push_back(
      ReportEntry{bom::CallStack{{{0, 0x300}, {0, 0x400}, {1, 0x900}}}, "pmem", 0});
  return r;
}

TEST(MatcherSuffix, FallsBackToInnermostFrames) {
  MatcherOptions opt;
  opt.min_suffix_depth = 2;
  auto m = CallStackMatcher::create(deep_report(), nullptr, opt);
  ASSERT_TRUE(m.has_value());
  // Same two innermost frames as the dram entry, different outer frame.
  const auto hit = m->match(bom::CallStack{{{0, 0x100}, {0, 0x200}, {1, 0xaaaa}}});
  ASSERT_TRUE(hit.matched());
  EXPECT_EQ(*hit.tier, "dram");
}

TEST(MatcherSuffix, ExactMatchStillWins) {
  MatcherOptions opt;
  opt.min_suffix_depth = 1;
  auto m = CallStackMatcher::create(deep_report(), nullptr, opt);
  ASSERT_TRUE(m.has_value());
  const auto hit = m->match(bom::CallStack{{{0, 0x300}, {0, 0x400}, {1, 0x900}}});
  ASSERT_TRUE(hit.matched());
  EXPECT_EQ(*hit.tier, "pmem");
}

TEST(MatcherSuffix, AmbiguousSuffixNeverMatches) {
  // At depth 1 both entries share the innermost frame {0,0x100}... build
  // such a report explicitly.
  ParsedReport r;
  r.is_bom = true;
  r.entries.push_back(ReportEntry{bom::CallStack{{{0, 0x100}, {0, 0x200}}}, "dram", 0});
  r.entries.push_back(ReportEntry{bom::CallStack{{{0, 0x100}, {0, 0x300}}}, "pmem", 0});
  MatcherOptions opt;
  opt.min_suffix_depth = 1;
  auto m = CallStackMatcher::create(r, nullptr, opt);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->match(bom::CallStack{{{0, 0x100}, {0, 0x999}}}).matched());
}

TEST(MatcherSuffix, DisabledByDefault) {
  auto m = CallStackMatcher::create(deep_report(), nullptr);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->match(bom::CallStack{{{0, 0x100}, {0, 0x200}, {1, 0xaaaa}}}).matched());
}

// ------------------------------------------------------- match cache

TEST(MatcherCache, SerialStreamMatchesUncachedMatcher) {
  // One stream of stacks with repeats, matched with the cache on and
  // off: exact hits, suffix hits, ambiguous suffixes and misses. The
  // cache memoizes a pure function, so every outcome and counter must
  // agree; only the matching cost may shrink.
  ParsedReport report = deep_report();
  report.entries.push_back(
      ReportEntry{bom::CallStack{{{0, 0x500}, {0, 0x600}, {1, 0x10}}}, "dram", 0});
  report.entries.push_back(
      ReportEntry{bom::CallStack{{{0, 0x500}, {0, 0x600}, {1, 0x20}}}, "pmem", 0});
  const std::vector<bom::CallStack> pool = {
      bom::CallStack{{{0, 0x100}, {0, 0x200}, {1, 0x900}}},  // exact hit (dram)
      bom::CallStack{{{0, 0x300}, {0, 0x400}, {1, 0x900}}},  // exact hit (pmem)
      bom::CallStack{{{0, 0x100}, {0, 0x200}, {1, 0xaaaa}}},  // suffix hit (dram)
      bom::CallStack{{{0, 0x300}, {0, 0x400}, {1, 0xbbbb}}},  // suffix hit (pmem)
      bom::CallStack{{{0, 0x500}, {0, 0x600}, {1, 0x30}}},   // ambiguous suffix
      bom::CallStack{{{0, 0x777}, {0, 0x888}}},               // miss
  };
  constexpr std::size_t kHitStacks = 4;  // the first four of the pool

  MatcherOptions options;
  options.min_suffix_depth = 2;
  auto plain = CallStackMatcher::create(report, nullptr, options);
  options.match_cache = true;
  auto cached = CallStackMatcher::create(report, nullptr, options);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(cached.has_value());

  Rng rng(0xC0FFEE);
  std::vector<bool> kind_seen(pool.size(), false);
  std::uint64_t expected_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t pick = rng.next_below(pool.size());
    kind_seen[pick] = true;
    expected_hits += pick < kHitStacks ? 1 : 0;
    const MatchResult want = plain->match(pool[pick]);
    const MatchResult got = cached->match(pool[pick]);
    ASSERT_EQ(got.matched(), want.matched()) << "lookup " << i << ", stack " << pick;
    ASSERT_EQ(want.matched(), pick < kHitStacks) << "lookup " << i << ", stack " << pick;
    if (want.matched()) {
      ASSERT_EQ(*got.tier, *want.tier) << "lookup " << i;
    }
  }
  for (std::size_t k = 0; k < pool.size(); ++k) EXPECT_TRUE(kind_seen[k]) << "stack " << k;

  EXPECT_EQ(plain->lookups(), 2000u);
  EXPECT_EQ(plain->hits(), expected_hits);
  EXPECT_EQ(cached->lookups(), plain->lookups());
  EXPECT_EQ(cached->hits(), plain->hits());
  // Repeated suffix probes are skipped, so the cost strictly shrinks.
  EXPECT_LT(cached->matching_cost_ns(), plain->matching_cost_ns());
}

}  // namespace
}  // namespace ecohmem::flexmalloc
