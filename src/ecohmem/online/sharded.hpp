#pragma once

/// \file sharded.hpp
/// Sampler + hotness state of the online placement policy.
///
/// The sampler consumes one RNG draw per feedback entry, so the sample
/// stream — and with it every downstream migration decision — is fixed
/// by how entries map to RNG streams. The state is split into
/// `kSamplerShards` shards keyed by `object % kSamplerShards`; each shard
/// owns its own sampler, seeded as a pure function of (policy seed,
/// shard index), and its own tracker, and consumes its objects' entries
/// in feedback order. The shard decomposition is part of the policy's
/// definition: changing it changes every seeded run's migrations.

#include <cstdint>
#include <vector>

#include "ecohmem/online/hotness.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/online/sampler.hpp"

namespace ecohmem::online {

/// Fixed shard count (part of the sample-stream definition, see above).
inline constexpr std::size_t kSamplerShards = 8;

class ShardedOnlineState {
 public:
  explicit ShardedOnlineState(const OnlinePolicyConfig& config);

  [[nodiscard]] static constexpr std::size_t shard_of(std::size_t object) {
    return object % kSamplerShards;
  }

  /// Processes one kernel's feedback: samples every entry through its
  /// object's shard (in `feedback` order), records the sampled events
  /// against that shard's tracker, then ends the kernel on every shard.
  /// Entries carry their object's live size in `ObjectAccess::bytes`.
  void process_kernel(const std::vector<ObjectAccess>& feedback);

  /// Drops an object's history (on free).
  void forget(std::size_t object);

  /// Seeds guidance history for an object (on alloc at a report-guided
  /// site); see HotnessTracker::seed.
  void seed(std::size_t object, double prior);

  /// Tracker queries, used at planning time.
  [[nodiscard]] double hotness(std::size_t object) const;
  [[nodiscard]] double shield(std::size_t object) const;
  [[nodiscard]] std::uint64_t age(std::size_t object) const;

  /// Objects with tracked history, summed over all shards.
  [[nodiscard]] std::size_t tracked() const;

 private:
  struct Shard {
    Shard(double rate, std::uint64_t seed, double alpha, std::uint64_t window)
        : sampler(rate, seed), tracker(alpha, window) {}

    AccessSampler sampler;
    HotnessTracker tracker;
  };

  std::vector<Shard> shards_;
};

}  // namespace ecohmem::online
