// Pairwise ranker training (ranker.hpp) and the learned placement policy
// (policy.hpp): bit-reproducible SGD, convergence on separable data,
// input validation, and — for the policy — the same capacity accounting
// contract as the greedy knapsack.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <unordered_set>

#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/learn/policy.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"

namespace ecohmem::learn {
namespace {

/// Separable toy set: column 0 fully decides the preference.
std::vector<PairSample> separable_pairs() {
  std::vector<PairSample> pairs;
  for (int i = 0; i < 8; ++i) {
    PairSample p;
    p.better[0] = 2.0 + 0.25 * i;
    p.better[1] = 1.0;
    p.worse[0] = 1.0 + 0.125 * i;
    p.worse[1] = 1.0;
    pairs.push_back(p);
  }
  return pairs;
}

TEST(RankerTraining, BitReproducible) {
  const auto pairs = separable_pairs();
  Model a;
  Model b;
  const auto sa = train_pairwise(a, pairs);
  const auto sb = train_pairwise(b, pairs);
  ASSERT_TRUE(sa.has_value()) << sa.error();
  ASSERT_TRUE(sb.has_value()) << sb.error();
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a.weights[i], 8);
    std::memcpy(&ub, &b.weights[i], 8);
    EXPECT_EQ(ua, ub) << "weight " << i;
  }
  EXPECT_EQ(sa->final_loss, sb->final_loss);
}

TEST(RankerTraining, SeedChangesTheTrajectory) {
  const auto pairs = separable_pairs();
  Model a;
  Model b;
  TrainOptions opt_b;
  opt_b.seed = 0xfeedu;
  ASSERT_TRUE(train_pairwise(a, pairs).has_value());
  ASSERT_TRUE(train_pairwise(b, pairs, opt_b).has_value());
  // Different shuffles visit pairs in different orders; the final
  // weights may agree in ranking but not bitwise.
  bool any_differ = false;
  for (std::size_t i = 0; i < kFeatureCount; ++i) any_differ |= a.weights[i] != b.weights[i];
  EXPECT_TRUE(any_differ);
}

TEST(RankerTraining, ConvergesOnSeparableData) {
  Model m;
  const auto stats = train_pairwise(m, separable_pairs());
  ASSERT_TRUE(stats.has_value()) << stats.error();
  EXPECT_EQ(stats->pair_accuracy, 1.0);
  EXPECT_LT(stats->final_loss, 0.5);
  EXPECT_GT(m.weights[0], 0.0);
  EXPECT_EQ(m.schema_hash, feature_schema_hash());
}

TEST(RankerTraining, RejectsInvalidInputs) {
  Model m;
  EXPECT_FALSE(train_pairwise(m, {}).has_value());

  const auto pairs = separable_pairs();
  TrainOptions bad;
  bad.epochs = 0;
  EXPECT_FALSE(train_pairwise(m, pairs, bad).has_value());
  bad = {};
  bad.learning_rate = 0.0;
  EXPECT_FALSE(train_pairwise(m, pairs, bad).has_value());
  bad = {};
  bad.l2 = -1.0;
  EXPECT_FALSE(train_pairwise(m, pairs, bad).has_value());

  auto nan_pairs = pairs;
  nan_pairs[0].better[2] = std::nan("");
  EXPECT_FALSE(train_pairwise(m, nan_pairs).has_value());
  auto zero_weight = pairs;
  zero_weight[0].weight = 0.0;
  EXPECT_FALSE(train_pairwise(m, zero_weight).has_value());
}

/// Profiled + analyzed minife, the policy-side fixture.
const analyzer::AnalysisResult& minife_analysis() {
  static const analyzer::AnalysisResult result = [] {
    apps::AppOptions opt;
    opt.iterations = 2;
    const runtime::Workload workload = apps::make_app("minife", opt);
    const auto sys = memsim::paper_system(6);
    profiler::Profiler prof;
    runtime::EngineOptions eopt;
    eopt.observer = &prof;
    runtime::ExecutionEngine engine(&*sys, eopt);
    runtime::FixedTierMode mode(&*sys, 1);
    if (!engine.run(workload, mode)) std::abort();
    auto analysis = analyzer::analyze(prof.take_trace(), {});
    if (!analysis) std::abort();
    return std::move(*analysis);
  }();
  return result;
}

advisor::AdvisorConfig two_tier_config(Bytes dram_limit) {
  advisor::AdvisorConfig config;
  advisor::TierPolicy dram;
  dram.name = "dram";
  dram.limit = dram_limit;
  dram.load_coef = 1.0;
  dram.store_coef = 0.125;
  dram.order = 0;
  advisor::TierPolicy pmem;
  pmem.name = "pmem";
  pmem.limit = 1ull << 50;
  pmem.load_coef = 1.0;
  pmem.store_coef = 0.125;
  pmem.order = 1;
  pmem.fallback = true;
  config.tiers = {dram, pmem};
  return config;
}

Model miss_volume_model() {
  Model m;
  m.schema_hash = feature_schema_hash();
  m.weights[3] = 1.0;  // log_load_misses
  m.weights[4] = 0.125;  // log_store_misses
  return m;
}

TEST(LearnedPolicy, RespectsTierCapacities) {
  const auto& analysis = minife_analysis();
  const Bytes limit = 8ull * 1024 * 1024 * 1024;
  const auto placement = place_by_ranker(analysis, two_tier_config(limit), miss_volume_model());
  ASSERT_TRUE(placement.has_value()) << placement.error();

  ASSERT_EQ(placement->decisions.size(), analysis.sites.size());
  EXPECT_EQ(placement->fallback_tier, "pmem");
  Bytes dram_used = 0;
  for (const auto& d : placement->decisions) {
    ASSERT_TRUE(d.tier == "dram" || d.tier == "pmem") << d.tier;
    if (d.tier == "dram") dram_used += d.footprint;
  }
  EXPECT_LE(dram_used, limit);
  EXPECT_GT(dram_used, 0u);
  EXPECT_EQ(dram_used, placement->footprint_in("dram"));
}

TEST(LearnedPolicy, EverySiteGetsExactlyOneDecision) {
  const auto& analysis = minife_analysis();
  const auto placement = place_by_ranker(analysis, two_tier_config(4ull << 30),
                                         miss_volume_model());
  ASSERT_TRUE(placement.has_value()) << placement.error();
  std::unordered_set<trace::StackId> seen;
  for (const auto& d : placement->decisions) {
    EXPECT_TRUE(seen.insert(d.stack).second) << "duplicate decision";
    EXPECT_EQ(placement->tier_of(d.stack), d.tier);
  }
  EXPECT_EQ(seen.size(), analysis.sites.size());
}

TEST(LearnedPolicy, CapacityCheckDoesNotWrap) {
  // A footprint near 2^64 (an alloc size read from a trace) must not
  // wrap the capacity check: it does not fit a 1 GiB tier.
  analyzer::AnalysisResult analysis;
  for (const auto& [stack, size, misses] :
       {std::tuple<trace::StackId, Bytes, double>{0, 4096, 1000.0}, {1, ~Bytes{0}, 10.0}}) {
    analyzer::SiteRecord site;
    site.stack = stack;
    site.callstack = bom::CallStack{{{0, 0x100 + 0x40 * stack}}};
    site.max_size = size;
    site.peak_live_bytes = size;
    site.alloc_count = 1;
    site.load_misses = misses;
    analysis.sites.push_back(site);
  }
  const auto placement =
      place_by_ranker(analysis, two_tier_config(1ull << 30), miss_volume_model());
  ASSERT_TRUE(placement.has_value()) << placement.error();
  EXPECT_EQ(placement->tier_of(0), "dram");
  EXPECT_EQ(placement->tier_of(1), "pmem");
  EXPECT_EQ(placement->footprint_in("dram"), 4096u);
}

TEST(LearnedPolicy, SchemaMismatchIsAnError) {
  Model stale = miss_volume_model();
  stale.schema_hash ^= 1;
  const auto placement =
      place_by_ranker(minife_analysis(), two_tier_config(8ull << 30), stale);
  ASSERT_FALSE(placement.has_value());
  EXPECT_NE(placement.error().find("schema"), std::string::npos) << placement.error();
}

TEST(LearnedPolicy, EmptyTierListIsAnError) {
  const advisor::AdvisorConfig empty;
  EXPECT_FALSE(place_by_ranker(minife_analysis(), empty, miss_volume_model()).has_value());
}

TEST(PlacementIndex, SetTierKeepsTierOfAndFootprintInFresh) {
  // The O(1) lookup caches behind Placement must see set_tier mutations
  // (the corpus builder and bandwidth-aware pass depend on this).
  const auto& analysis = minife_analysis();
  const auto placement = place_by_ranker(analysis, two_tier_config(8ull << 30),
                                         miss_volume_model());
  ASSERT_TRUE(placement.has_value()) << placement.error();

  advisor::Placement p = *placement;
  std::size_t dram_index = p.decisions.size();
  for (std::size_t i = 0; i < p.decisions.size(); ++i) {
    if (p.decisions[i].tier == "dram") dram_index = i;
  }
  ASSERT_LT(dram_index, p.decisions.size());

  const Bytes before_dram = p.footprint_in("dram");
  const Bytes before_pmem = p.footprint_in("pmem");
  const auto moved = p.decisions[dram_index];
  p.set_tier(dram_index, "pmem");
  EXPECT_EQ(p.tier_of(moved.stack), "pmem");
  EXPECT_EQ(p.footprint_in("dram"), before_dram - moved.footprint);
  EXPECT_EQ(p.footprint_in("pmem"), before_pmem + moved.footprint);
}

}  // namespace
}  // namespace ecohmem::learn
