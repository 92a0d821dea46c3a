// Unit tests of the online placement subsystem's pure pieces: the
// policy config loader, the PEBS-style sampler, the EWMA hotness
// tracker with its windowed shield, and the migration planner with its
// cost model (docs/online.md).

#include <gtest/gtest.h>

#include <cmath>

#include "ecohmem/common/config.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/online/hotness.hpp"
#include "ecohmem/online/planner.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/online/sampler.hpp"
#include "ecohmem/online/sharded.hpp"

namespace ecohmem::online {
namespace {

// ------------------------------------------------------- policy config

Expected<OnlinePolicyConfig> parse_policy(std::string_view text) {
  auto config = Config::parse(text);
  if (!config) return unexpected(config.error());
  return OnlinePolicyConfig::from_config(*config);
}

TEST(PolicyConfig, DefaultsValidate) {
  const OnlinePolicyConfig config;
  EXPECT_TRUE(config.validate().ok());
}

TEST(PolicyConfig, ParsesSectionAndGlobalForms) {
  const auto sectioned = parse_policy("[online]\nsample_rate = 0.5\nwindow = 3\n");
  ASSERT_TRUE(sectioned.has_value()) << sectioned.error();
  EXPECT_DOUBLE_EQ(sectioned->sample_rate, 0.5);
  EXPECT_EQ(sectioned->window, 3u);

  const auto bare = parse_policy("ewma_alpha = 0.9\nhysteresis = 0.1\n");
  ASSERT_TRUE(bare.has_value()) << bare.error();
  EXPECT_DOUBLE_EQ(bare->ewma_alpha, 0.9);
  EXPECT_DOUBLE_EQ(bare->hysteresis, 0.1);
}

TEST(PolicyConfig, RejectsUnknownKey) {
  const auto config = parse_policy("[online]\nsampel_rate = 0.5\n");
  ASSERT_FALSE(config.has_value());
  EXPECT_NE(config.error().find("sampel_rate"), std::string::npos);
}

TEST(PolicyConfig, RejectsOutOfRangeValues) {
  EXPECT_FALSE(parse_policy("sample_rate = 0\n").has_value());
  EXPECT_FALSE(parse_policy("sample_rate = 1.5\n").has_value());
  EXPECT_FALSE(parse_policy("ewma_alpha = -0.1\n").has_value());
  EXPECT_FALSE(parse_policy("window = 0\n").has_value());
  EXPECT_FALSE(parse_policy("hysteresis = -1\n").has_value());
  EXPECT_FALSE(parse_policy("min_density = -2\n").has_value());
  EXPECT_FALSE(parse_policy("max_moves_per_step = 0\n").has_value());
  EXPECT_FALSE(parse_policy("bandwidth_fraction = 2\n").has_value());
}

TEST(PolicyConfig, RejectsMalformedValues) {
  EXPECT_FALSE(parse_policy("window = many\n").has_value());
  EXPECT_FALSE(parse_policy("sample_rate = fast\n").has_value());
}

TEST(PolicyConfig, KeyTableIsNullTerminatedAndComplete) {
  const char* const* keys = policy_keys();
  std::size_t n = 0;
  bool saw_sample_rate = false;
  for (; keys[n] != nullptr; ++n) {
    if (std::string_view(keys[n]) == "sample_rate") saw_sample_rate = true;
  }
  EXPECT_EQ(n, 11u);
  EXPECT_TRUE(saw_sample_rate);
}

// ------------------------------------------------------------- sampler

TEST(Sampler, FullRateIsExactForIntegralCounts) {
  AccessSampler sampler(1.0, 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.sample_count(1000.0), 1000u);
  }
}

TEST(Sampler, SameSeedSameStream) {
  AccessSampler a(0.1, 7);
  AccessSampler b(0.1, 7);
  for (int i = 0; i < 1000; ++i) {
    const double events = 100.0 + i * 3.7;
    EXPECT_EQ(a.sample_count(events), b.sample_count(events));
  }
}

TEST(Sampler, MeanTracksRate) {
  AccessSampler sampler(0.25, 11);
  double total = 0.0;
  const int rounds = 4000;
  for (int i = 0; i < rounds; ++i) {
    total += static_cast<double>(sampler.sample_count(10.0));
  }
  // E[count] = 10 * 0.25 = 2.5; the Bernoulli remainder averages out.
  EXPECT_NEAR(total / rounds, 2.5, 0.1);
}

TEST(Sampler, HigherRateNeverSamplesLessInExpectation) {
  AccessSampler low(0.01, 3);
  AccessSampler high(0.5, 3);
  double low_total = 0.0;
  double high_total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    low_total += static_cast<double>(low.sample_count(200.0));
    high_total += static_cast<double>(high.sample_count(200.0));
  }
  EXPECT_LT(low_total, high_total);
}

TEST(Sampler, SamplesLoadsAndStoresSeparately) {
  AccessSampler sampler(1.0, 5);
  const SampledAccess s = sampler.sample(ObjectAccess{9, 640.0, 320.0});
  EXPECT_EQ(s.object, 9u);
  EXPECT_EQ(s.loads, 640u);
  EXPECT_EQ(s.stores, 320u);
}

// ------------------------------------------------------------- hotness

constexpr Bytes kMiB = 1ull << 20;

TEST(Hotness, EwmaBlendsTowardDensity) {
  HotnessTracker tracker(0.5, 4);
  tracker.record(1, 100.0, kMiB);  // density 100 events/MiB
  tracker.end_kernel();
  EXPECT_DOUBLE_EQ(tracker.hotness(1), 50.0);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  EXPECT_DOUBLE_EQ(tracker.hotness(1), 75.0);
}

TEST(Hotness, UntouchedObjectsDecay) {
  HotnessTracker tracker(0.5, 8);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  const double before = tracker.hotness(1);
  tracker.end_kernel();  // kernel that never touches object 1
  EXPECT_DOUBLE_EQ(tracker.hotness(1), before * 0.5);
}

TEST(Hotness, ShieldHoldsPeakForWindowKernels) {
  HotnessTracker tracker(0.5, 3);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  const double peak = tracker.hotness(1);
  // Two cold kernels: EWMA decays but the shield still remembers the peak.
  tracker.end_kernel();
  tracker.end_kernel();
  EXPECT_LT(tracker.hotness(1), peak);
  EXPECT_DOUBLE_EQ(tracker.shield(1), peak);
  // A third cold kernel pushes the peak out of the window; the shield
  // falls to the oldest surviving EWMA value (two decays above current).
  tracker.end_kernel();
  EXPECT_LT(tracker.shield(1), peak);
  EXPECT_DOUBLE_EQ(tracker.shield(1), tracker.hotness(1) * 4.0);
}

TEST(Hotness, ShieldNeverBelowCurrentHotness) {
  HotnessTracker tracker(0.3, 5);
  for (int k = 0; k < 20; ++k) {
    tracker.record(1, (k % 3 == 0) ? 300.0 : 1.0, kMiB);
    tracker.end_kernel();
    EXPECT_GE(tracker.shield(1), tracker.hotness(1));
  }
}

TEST(Hotness, AgeCountsKernelsAndResetsOnForget) {
  HotnessTracker tracker(0.5, 4);
  EXPECT_EQ(tracker.age(1), 0u);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  EXPECT_EQ(tracker.age(1), 1u);
  tracker.end_kernel();
  EXPECT_EQ(tracker.age(1), 2u);
  tracker.forget(1);
  EXPECT_EQ(tracker.age(1), 0u);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  EXPECT_EQ(tracker.age(1), 1u);  // reborn, not resumed
}

TEST(Hotness, FullyDecayedEntriesAreEvicted) {
  HotnessTracker tracker(0.9, 2);
  tracker.record(1, 1.0, kMiB);
  tracker.end_kernel();
  EXPECT_EQ(tracker.tracked(), 1u);
  for (int k = 0; k < 400; ++k) tracker.end_kernel();
  EXPECT_EQ(tracker.tracked(), 0u);
  EXPECT_DOUBLE_EQ(tracker.hotness(1), 0.0);
}

TEST(Hotness, ForgetDropsHistory) {
  HotnessTracker tracker(0.5, 4);
  tracker.record(1, 100.0, kMiB);
  tracker.end_kernel();
  tracker.forget(1);
  EXPECT_DOUBLE_EQ(tracker.hotness(1), 0.0);
  EXPECT_DOUBLE_EQ(tracker.shield(1), 0.0);
  EXPECT_EQ(tracker.tracked(), 0u);
}

// ------------------------------------------------------------- planner

OnlinePolicyConfig planner_config() {
  OnlinePolicyConfig config;
  config.min_density = 1.0;
  config.hysteresis = 0.25;
  config.window = 4;
  config.max_moves_per_step = 8;
  config.max_bytes_per_step = 0;
  return config;
}

/// A mature view: old enough to pass the planner's maturity gate.
ObjectView view(std::size_t object, Bytes bytes, std::size_t tier, double hotness,
                double shield = -1.0) {
  return ObjectView{object, bytes, tier, hotness, shield < 0.0 ? hotness : shield,
                    /*age=*/100};
}

TEST(Planner, PromotesHottestFirstIntoHeadroom) {
  const MigrationPlanner planner(planner_config());
  const std::vector<ObjectView> views = {
      view(0, 100, 1, 5.0),
      view(1, 100, 1, 50.0),
      view(2, 100, 1, 20.0),
  };
  const auto moves = planner.plan(views, 0, 250);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].object, 1u);
  EXPECT_EQ(moves[1].object, 2u);
  EXPECT_EQ(moves[0].to_tier, 0u);
}

TEST(Planner, MinDensityGatesPromotion) {
  auto config = planner_config();
  config.min_density = 10.0;
  const MigrationPlanner planner(config);
  const auto moves = planner.plan({view(0, 100, 1, 5.0)}, 0, 1000);
  EXPECT_TRUE(moves.empty());
}

TEST(Planner, ImmatureObjectsAreNeverPromoted) {
  const MigrationPlanner planner(planner_config());
  ObjectView young = view(0, 100, 1, 500.0);
  young.age = 3;  // window is 4
  EXPECT_TRUE(planner.plan({young}, 0, 1000).empty());
  young.age = 4;
  EXPECT_EQ(planner.plan({young}, 0, 1000).size(), 1u);
}

TEST(Planner, DisplacesVictimWhenBeatingShieldByHysteresis) {
  const MigrationPlanner planner(planner_config());
  // Victim shield 10; candidate must beat 10 * 1.25 = 12.5.
  const std::vector<ObjectView> views = {
      view(0, 100, 0, 2.0, 10.0),  // fast-tier resident
      view(1, 100, 1, 13.0),       // hot enough
  };
  const auto moves = planner.plan(views, 0, 0);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].object, 0u);  // demote precedes the promote it funds
  EXPECT_EQ(moves[0].to_tier, 1u);
  EXPECT_EQ(moves[1].object, 1u);
  EXPECT_EQ(moves[1].to_tier, 0u);
}

TEST(Planner, HysteresisProtectsVictimWithinMargin) {
  const MigrationPlanner planner(planner_config());
  const std::vector<ObjectView> views = {
      view(0, 100, 0, 2.0, 10.0),
      view(1, 100, 1, 12.0),  // > shield but within the 25% margin
  };
  EXPECT_TRUE(planner.plan(views, 0, 0).empty());
}

TEST(Planner, ShieldProtectsEvenWhenInstantHotnessDips) {
  const MigrationPlanner planner(planner_config());
  // The resident's EWMA dipped to 1 between its hot kernels, but its
  // windowed peak is 100 — a periodic workload must not thrash.
  const std::vector<ObjectView> views = {
      view(0, 100, 0, 1.0, 100.0),
      view(1, 100, 1, 50.0),
  };
  EXPECT_TRUE(planner.plan(views, 0, 0).empty());
}

TEST(Planner, MaxMovesCapRespected) {
  auto config = planner_config();
  config.max_moves_per_step = 2;
  const MigrationPlanner planner(config);
  const std::vector<ObjectView> views = {
      view(0, 100, 1, 30.0),
      view(1, 100, 1, 20.0),
      view(2, 100, 1, 10.0),
  };
  EXPECT_EQ(planner.plan(views, 0, 1000).size(), 2u);
}

TEST(Planner, MaxBytesCapRespected) {
  auto config = planner_config();
  config.max_bytes_per_step = 150;
  const MigrationPlanner planner(config);
  const std::vector<ObjectView> views = {
      view(0, 100, 1, 30.0),
      view(1, 100, 1, 20.0),
  };
  EXPECT_EQ(planner.plan(views, 0, 1000).size(), 1u);
}

TEST(Planner, SkipsOversizedCandidateAndStillPromotesSmaller) {
  const MigrationPlanner planner(planner_config());
  const std::vector<ObjectView> views = {
      view(0, 500, 1, 30.0),  // does not fit
      view(1, 100, 1, 20.0),  // fits
  };
  const auto moves = planner.plan(views, 0, 200);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].object, 1u);
}

TEST(Planner, DeterministicTieBreakByObjectId) {
  const MigrationPlanner planner(planner_config());
  const std::vector<ObjectView> views = {
      view(7, 100, 1, 20.0),
      view(3, 100, 1, 20.0),
  };
  const auto moves = planner.plan(views, 0, 100);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].object, 3u);
}

// -------------------------------------- planner: page-granular chunking

/// Small chunks so the tests stay readable: chunk 64, huge cutoff 256.
OnlinePolicyConfig chunked_config() {
  auto config = planner_config();
  config.chunk_bytes = 64;
  config.huge_object_bytes = 256;
  return config;
}

ObjectView partial_view(std::size_t object, Bytes bytes, std::size_t tier, double hotness,
                        Bytes fast_bytes) {
  ObjectView v = view(object, bytes, tier, hotness);
  v.fast_bytes = fast_bytes;
  return v;
}

TEST(Planner, HugeObjectTakesChunkAlignedPartialIntoFreeHeadroom) {
  const MigrationPlanner planner(chunked_config());
  const std::vector<ObjectView> views = {view(0, 1000, 1, 50.0)};
  const auto moves = planner.plan(views, 0, 200);  // headroom < the object
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].object, 0u);
  EXPECT_EQ(moves[0].bytes, 192u);  // chunk_floor(200)
  EXPECT_EQ(moves[0].offset, 0u);
  EXPECT_TRUE(moves[0].partial);
}

TEST(Planner, PartialPromotionContinuesFromThePromotedPrefix) {
  const MigrationPlanner planner(chunked_config());
  // 192 of 1000 bytes already fast: the next move starts at offset 192.
  const std::vector<ObjectView> views = {partial_view(0, 1000, 1, 50.0, 192)};
  const auto moves = planner.plan(views, 0, 10'000);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].bytes, 1000u - 192u);
  EXPECT_EQ(moves[0].offset, 192u);
  EXPECT_TRUE(moves[0].partial);
}

TEST(Planner, FullyPromotedObjectIsNotMovedAgain) {
  const MigrationPlanner planner(chunked_config());
  const std::vector<ObjectView> views = {partial_view(0, 1000, 1, 50.0, 1000)};
  EXPECT_TRUE(planner.plan(views, 0, 10'000).empty());
}

TEST(Planner, NonHugeObjectIsNeverSplit) {
  auto config = chunked_config();
  config.huge_object_bytes = 4096;  // nothing below this splits
  const MigrationPlanner planner(config);
  const std::vector<ObjectView> views = {view(0, 1000, 1, 50.0)};
  EXPECT_TRUE(planner.plan(views, 0, 200).empty());
}

TEST(Planner, PartialDisabledWhenHugeThresholdIsZero) {
  auto config = chunked_config();
  config.huge_object_bytes = 0;
  const MigrationPlanner planner(config);
  const std::vector<ObjectView> views = {view(0, 1000, 1, 50.0)};
  EXPECT_TRUE(planner.plan(views, 0, 200).empty());
}

TEST(Planner, SubChunkHeadroomYieldsNoPartialMove) {
  const MigrationPlanner planner(chunked_config());
  const std::vector<ObjectView> views = {view(0, 1000, 1, 50.0)};
  EXPECT_TRUE(planner.plan(views, 0, 63).empty());  // chunk_floor(63) == 0
}

TEST(Planner, HugeObjectGetsPartialGrantAfterDisplacement) {
  const MigrationPlanner planner(chunked_config());
  // No free headroom; one cold displaceable victim of 128 bytes. The
  // 1000-byte candidate cannot fully fit even after the displacement, so
  // it takes the chunk-aligned part the victim's bytes allow.
  const std::vector<ObjectView> views = {
      view(0, 1000, 1, 50.0),
      view(1, 128, 0, 1.0, /*shield=*/1.0),
  };
  const auto moves = planner.plan(views, 0, 0);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].object, 1u);  // the demotion first
  EXPECT_EQ(moves[0].to_tier, 1u);
  EXPECT_FALSE(moves[0].partial);
  EXPECT_EQ(moves[1].object, 0u);
  EXPECT_EQ(moves[1].bytes, 128u);
  EXPECT_TRUE(moves[1].partial);
}

TEST(Planner, PartialMovesRespectByteBudget) {
  auto config = chunked_config();
  config.max_bytes_per_step = 128;
  const MigrationPlanner planner(config);
  const std::vector<ObjectView> views = {view(0, 1000, 1, 50.0)};
  const auto moves = planner.plan(views, 0, 10'000);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].bytes, 128u);  // budget-floored, chunk-aligned
  EXPECT_TRUE(moves[0].partial);
}

// ------------------------------------------------------- sharded state

/// The shard decomposition is a pure function of the object id, so each
/// object's sample stream depends only on the policy and the workload.
TEST(Sharded, ShardOfDependsOnlyOnObjectId) {
  for (std::size_t o = 0; o < 64; ++o) {
    EXPECT_EQ(ShardedOnlineState::shard_of(o), o % kSamplerShards);
  }
}

std::vector<ObjectAccess> mixed_feedback() {
  std::vector<ObjectAccess> feedback;
  for (std::size_t o = 0; o < 24; ++o) {
    feedback.push_back(ObjectAccess{o, 1000.0 + static_cast<double>(o) * 10.0, 50.0,
                                    Bytes{1} << 20});
  }
  return feedback;
}

TEST(Sharded, MatchesSingleTrackerStreamPerShard) {
  // A shard's sample stream must equal what a dedicated sampler seeded
  // the same way would produce for that shard's objects in stream order
  // — the definition of "serial order within a shard".
  OnlinePolicyConfig config;
  config.sample_rate = 1.0;  // exact: hotness is then pure arithmetic
  ShardedOnlineState state(config);
  const auto feedback = mixed_feedback();
  state.process_kernel(feedback);

  HotnessTracker reference(config.ewma_alpha, config.window);
  // Any seed works at rate 1.0: full-rate sampling is exact, so the
  // shard's private RNG stream cannot influence the counts.
  AccessSampler sampler(config.sample_rate, config.seed);
  for (const auto& f : feedback) {
    if (ShardedOnlineState::shard_of(f.object) != 0) continue;
    const SampledAccess s = sampler.sample(f);
    reference.record(f.object, static_cast<double>(s.loads + s.stores), f.bytes);
  }
  reference.end_kernel();
  for (std::size_t o = 0; o < 24; o += kSamplerShards) {
    EXPECT_EQ(state.hotness(o), reference.hotness(o)) << "object " << o;
  }
}

TEST(Sharded, SeedMakesObjectMatureAtPrior) {
  OnlinePolicyConfig config;
  ShardedOnlineState state(config);
  state.seed(5, 7.5);
  EXPECT_EQ(state.hotness(5), 7.5);
  EXPECT_EQ(state.shield(5), 7.5);
  EXPECT_GE(state.age(5), config.window);
  state.forget(5);
  EXPECT_EQ(state.hotness(5), 0.0);
  EXPECT_EQ(state.tracked(), 0u);
}

// ---------------------------------------------------------- cost model

TEST(CostModel, ChargesBytesOverPairwiseBandwidth) {
  const auto system = memsim::paper_system(6);
  ASSERT_TRUE(system.has_value());
  // dram -> pmem: bound by pmem write bandwidth; the other direction by
  // pmem read bandwidth. Both scale inversely with bandwidth_fraction.
  const double down = migration_cost_ns(1ull << 30, *system, 0, 1, 1.0);
  const double up = migration_cost_ns(1ull << 30, *system, 1, 0, 1.0);
  EXPECT_GT(down, 0.0);
  EXPECT_GT(up, 0.0);
  EXPECT_GT(down, up);  // PMem writes are slower than PMem reads
  EXPECT_NEAR(migration_cost_ns(1ull << 30, *system, 0, 1, 0.5), down * 2.0, down * 1e-9);
  EXPECT_DOUBLE_EQ(migration_cost_ns(0, *system, 0, 1, 0.5), 0.0);
}

}  // namespace
}  // namespace ecohmem::online
